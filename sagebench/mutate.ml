(* Seeded mutants of corpus sentences for mutated-text.  Three families
   damage a sentence the way careless spec text does — a dropped word, a
   doubled word, a comma phrase repeated k times — and controls pass it
   through unchanged.  Every choice comes from the seed. *)

type family =
  | Control
  | Drop_word of int  (** word index *)
  | Dup_word of int
  | Comma_repeat of { phrase : int; k : int }

type mutant = { source : int; family : family; text : string }

let words s = List.filter (fun w -> w <> "") (String.split_on_char ' ' s)

let ends_with_comma w = w <> "" && w.[String.length w - 1] = ','

(* A comma phrase runs from the start of the sentence, or the word after
   the previous comma, up to and including a word that ends in a comma.
   Returns (first word, last word) index pairs. *)
let comma_phrases ws =
  let _, rev =
    List.fold_left
      (fun (i, acc) w ->
        let start = match acc with [] -> 0 | (_, last) :: _ -> last + 1 in
        (i + 1, if ends_with_comma w then (start, i) :: acc else acc))
      (0, []) ws
  in
  List.rev rev

let apply family ws =
  let a = Array.of_list ws in
  let n = Array.length a in
  let slice i j = Array.to_list (Array.sub a i (j - i)) in
  let out =
    match family with
    | Control -> ws
    | Drop_word i -> slice 0 i @ slice (i + 1) n
    | Dup_word i -> slice 0 (i + 1) @ (a.(i) :: slice (i + 1) n)
    | Comma_repeat { phrase; k } ->
      let first, last = List.nth (comma_phrases ws) phrase in
      let p = slice first (last + 1) in
      slice 0 (last + 1) @ List.concat (List.init k (fun _ -> p)) @ slice (last + 1) n
  in
  String.concat " " out

let family_rank = function
  | Control -> 0
  | Drop_word _ -> 1
  | Dup_word _ -> 2
  | Comma_repeat { k; _ } -> 2 + k

(* One cycle: every source sentence unchanged (the control), with one
   seeded word dropped, with one seeded word doubled, and — when it has
   a comma — with its leading comma phrase repeated k times for every k
   from 1 to [cap].  Mutants are grouped by family, lightest first, so
   the blown-up charts come last and leave the rest of the cycle
   undisturbed; within a family sentences keep their corpus order. *)
let cycle ~seed ~cap ~cycle sentences =
  let rng = Random.State.make [| seed; cycle; 0x6d75 |] in
  List.concat
    (List.mapi
       (fun i s ->
         let ws = words s in
         let n = List.length ws in
         let pos () = Random.State.int rng n in
         let families =
           (Control :: (if n > 1 then [ Drop_word (pos ()) ] else []))
           @ [ Dup_word (pos ()) ]
           @
           if comma_phrases ws = [] then []
           else List.init cap (fun j -> Comma_repeat { phrase = 0; k = j + 1 })
         in
         List.map (fun family -> { source = i; family; text = apply family ws }) families)
       (Array.to_list sentences))
  |> List.stable_sort (fun a b -> compare (family_rank a.family) (family_rank b.family))
  |> Array.of_list

let family_name = function
  | Control -> "control"
  | Drop_word _ -> "drop-word"
  | Dup_word _ -> "dup-word"
  | Comma_repeat { k; _ } -> Printf.sprintf "comma-repeat-k%d" k
