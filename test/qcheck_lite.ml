(* A minimal property-based testing harness: seeded deterministic
   generators plus greedy counterexample shrinking, packaged as Alcotest
   cases.  The fixed seed makes every CI run replay the same cases.

   The PRNG (splitmix64) lives in Sage_fuzz.Rng — one deterministic
   stream shared with the fuzzer, independent of the stdlib Random
   module (whose sequence changed across OCaml versions and is
   domain-local on OCaml 5). *)

type rand = Sage_fuzz.Rng.t

let rand_of_seed = Sage_fuzz.Rng.of_seed
let next_int64 = Sage_fuzz.Rng.next_int64
let int_below = Sage_fuzz.Rng.int_below
let gen_range = Sage_fuzz.Rng.range
let gen_bool = Sage_fuzz.Rng.bool
let pick = Sage_fuzz.Rng.pick

(* ------------------------------------------------------------------ *)
(* Arbitraries: generator + shrinker + printer.                        *)
(* ------------------------------------------------------------------ *)

type 'a t = {
  gen : rand -> 'a;
  shrink : 'a -> 'a list;  (* strictly-simpler candidates, best first *)
  print : 'a -> string;
}

let make ?(shrink = fun _ -> []) ~print gen = { gen; shrink; print }

let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* -- ints -- *)

let shrink_int_toward lo n =
  if n = lo then []
  else dedup (List.filter (fun c -> c <> n) [ lo; lo + ((n - lo) / 2); n - 1 ])

let int_range lo hi =
  if lo > hi then invalid_arg "Qcheck_lite.int_range";
  {
    gen = (fun r -> gen_range r lo hi);
    shrink = (fun n -> List.filter (fun c -> c >= lo && c <= hi) (shrink_int_toward lo n));
    print = string_of_int;
  }

let small_nat = int_range 0 100
let byte_int = int_range 0 255

let bool =
  { gen = gen_bool; shrink = (fun b -> if b then [ false ] else []); print = string_of_bool }

(* -- strings -- *)

let lower_alpha r = Char.chr (gen_range r (Char.code 'a') (Char.code 'z'))
let printable r = Char.chr (gen_range r 32 126)
let any_char r = Char.chr (int_below r 256)

let shrink_string s =
  let n = String.length s in
  if n = 0 then []
  else
    dedup
      (List.filter
         (fun c -> c <> s)
         ((if n >= 2 then [ String.sub s 0 (n / 2) ] else [])
          @ [ String.sub s 0 (n - 1) ]
          @ (if String.exists (fun c -> c <> 'a') s then [ String.make n 'a' ] else [])))

let string_of ?(min_len = 0) ~max_len gen_char =
  {
    gen =
      (fun r ->
        let n = gen_range r min_len max_len in
        String.init n (fun _ -> gen_char r));
    shrink = (fun s -> List.filter (fun c -> String.length c >= min_len) (shrink_string s));
    print = (fun s -> Printf.sprintf "%S" s);
  }

let string_arb = string_of ~max_len:24 printable

(* -- bytes (packet material: shrinks toward shorter, then all-zero) -- *)

let shrink_bytes b =
  let n = Bytes.length b in
  if n = 0 then []
  else
    dedup
      (List.filter
         (fun c -> c <> b)
         ((if n >= 2 then [ Bytes.sub b 0 (n / 2) ] else [])
          @ [ Bytes.sub b 0 (n - 1) ]
          @ (if Bytes.exists (fun c -> c <> '\000') b then [ Bytes.make n '\000' ] else [])))

let print_bytes b =
  let buf = Buffer.create ((Bytes.length b * 3) + 16) in
  Buffer.add_string buf (Printf.sprintf "%d bytes:" (Bytes.length b));
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf " %02x" (Char.code c))) b;
  Buffer.contents buf

let bytes_arb ?(min_len = 0) ~max_len () =
  {
    gen =
      (fun r ->
        let n = gen_range r min_len max_len in
        Bytes.init n (fun _ -> any_char r));
    shrink = (fun b -> List.filter (fun c -> Bytes.length c >= min_len) (shrink_bytes b));
    print = print_bytes;
  }

(* -- lists -- *)

let rec remove_at i = function
  | [] -> []
  | _ :: rest when i = 0 -> rest
  | x :: rest -> x :: remove_at (i - 1) rest

let rec replace_at i v = function
  | [] -> []
  | _ :: rest when i = 0 -> v :: rest
  | x :: rest -> x :: replace_at (i - 1) v rest

let take n l = List.filteri (fun i _ -> i < n) l

let shrink_list shrink_elt l =
  let n = List.length l in
  if n = 0 then []
  else
    let halves = if n >= 2 then [ take (n / 2) l ] else [] in
    let removals = List.mapi (fun i _ -> remove_at i l) l in
    let pointwise =
      List.concat (List.mapi (fun i x -> List.map (fun c -> replace_at i c l) (shrink_elt x)) l)
    in
    dedup (List.filter (fun c -> c <> l) (halves @ removals @ pointwise))

let list_of ?(min_len = 0) ~max_len elt =
  {
    gen =
      (fun r ->
        let n = gen_range r min_len max_len in
        List.init n (fun _ -> elt.gen r));
    shrink =
      (fun l -> List.filter (fun c -> List.length c >= min_len) (shrink_list elt.shrink l));
    print = (fun l -> "[" ^ String.concat "; " (List.map elt.print l) ^ "]");
  }

(* -- combinators -- *)

let pair a b =
  {
    gen = (fun r -> (a.gen r, b.gen r));
    shrink =
      (fun (x, y) ->
        List.map (fun x' -> (x', y)) (a.shrink x)
        @ List.map (fun y' -> (x, y')) (b.shrink y));
    print = (fun (x, y) -> Printf.sprintf "(%s, %s)" (a.print x) (b.print y));
  }

let triple a b c =
  {
    gen =
      (fun r ->
        let x = a.gen r in
        let y = b.gen r in
        (x, y, c.gen r));
    shrink =
      (fun (x, y, z) ->
        List.map (fun x' -> (x', y, z)) (a.shrink x)
        @ List.map (fun y' -> (x, y', z)) (b.shrink y)
        @ List.map (fun z' -> (x, y, z')) (c.shrink z));
    print =
      (fun (x, y, z) -> Printf.sprintf "(%s, %s, %s)" (a.print x) (b.print y) (c.print z));
  }

let quad a b c d =
  let abc = triple a b c in
  {
    gen =
      (fun r ->
        let x, y, z = abc.gen r in
        (x, y, z, d.gen r));
    shrink =
      (fun (x, y, z, w) ->
        List.map (fun (x', y', z') -> (x', y', z', w)) (abc.shrink (x, y, z))
        @ List.map (fun w' -> (x, y, z, w')) (d.shrink w));
    print =
      (fun (x, y, z, w) ->
        Printf.sprintf "(%s, %s, %s, %s)" (a.print x) (b.print y) (c.print z) (d.print w));
  }

let map ~print f a =
  (* shrinking is lost across an arbitrary map; use for final assembly
     (e.g. tuple-of-fields -> packet record), not for shrinkable cores *)
  { gen = (fun r -> f (a.gen r)); shrink = (fun _ -> []); print }

let oneof arbs =
  match arbs with
  | [] -> invalid_arg "Qcheck_lite.oneof"
  | first :: _ ->
    {
      gen = (fun r -> (pick r arbs).gen r);
      (* all components have the same type; offer every component's
         shrinks (candidates that an arm could not have produced just
         fail to simplify further, which is harmless) *)
      shrink = (fun x -> dedup (List.concat_map (fun a -> a.shrink x) arbs));
      print = first.print;
    }

(* -- token lists (chunker/parser fodder) -- *)

let token_text_pool =
  [ "the"; "checksum"; "is"; "zero"; "if"; "code"; "field"; "message";
    "set"; "to"; "echo"; "reply"; "and"; "or"; "of"; "address"; "source" ]

let token =
  let gen r =
    match int_below r 10 with
    | 0 | 1 -> Sage_nlp.Token.v Sage_nlp.Token.Number (string_of_int (int_below r 256))
    | 2 -> Sage_nlp.Token.v Sage_nlp.Token.Symbol (pick r [ "="; "+"; "/" ])
    | 3 -> Sage_nlp.Token.v Sage_nlp.Token.Punct (pick r [ ","; ";"; ":" ])
    | _ -> Sage_nlp.Token.v Sage_nlp.Token.Word (pick r token_text_pool)
  in
  make ~print:(fun t -> Printf.sprintf "%S" t.Sage_nlp.Token.text) gen

let token_list = list_of ~max_len:12 token

(* -- logical forms: leaves from fixed pools, predicates of 1-3
   arguments, the size budget halving at each level; a predicate shrinks
   to its arguments.  The size is drawn like QCheck's [nat]: below 10,
   100, 1000 or 10000 with probability 0.5/0.25/0.2/0.05, so about one
   tree in four nests deeper than seven levels -- *)

let sized_nat r =
  let k = int_below r 20 in
  int_below r (if k < 10 then 10 else if k < 15 then 100 else if k < 19 then 1_000 else 10_000)

let lf ~terms ~max_num ~strs ~preds =
  let leaf r =
    match int_below r 3 with
    | 0 -> Sage_logic.Lf.Term (pick r terms)
    | 1 -> Sage_logic.Lf.Num (gen_range r 0 max_num)
    | _ -> Sage_logic.Lf.Str (pick r strs)
  in
  let rec go n r =
    if n <= 1 || int_below r 4 = 0 then leaf r
    else
      let p = pick r preds in
      Sage_logic.Lf.Pred (p, List.init (gen_range r 1 3) (fun _ -> go (n / 2) r))
  in
  {
    gen = (fun r -> go (sized_nat r) r);
    shrink = (function Sage_logic.Lf.Pred (_, args) -> args | _ -> []);
    print = Sage_logic.Lf.to_string;
  }

(* ------------------------------------------------------------------ *)
(* Runner.                                                             *)
(* ------------------------------------------------------------------ *)

let default_seed = 0xBEEF

let eval prop x =
  match prop x with
  | true -> None
  | false -> Some "returned false"
  | exception exn -> Some ("raised " ^ Printexc.to_string exn)

let minimize arb prop x reason =
  let budget = ref 1000 in
  let rec go x reason steps =
    if !budget <= 0 then (x, reason, steps)
    else begin
      decr budget;
      let candidates = arb.shrink x in
      match
        List.find_map (fun c -> Option.map (fun r -> (c, r)) (eval prop c)) candidates
      with
      | Some (c, r) -> go c r (steps + 1)
      | None -> (x, reason, steps)
    end
  in
  go x reason 0

(* A falsified property, fully described: what failed, on which draw,
   how far the shrinker got, and how to replay the exact run. *)
type failure = {
  case_index : int;  (** 1-based draw that first falsified *)
  case_count : int;
  seed : int;
  counterexample : string;  (** printed, after shrinking *)
  reason : string;
  shrink_steps : int;
}

let failure_message name f =
  Printf.sprintf
    "property %S falsified (case %d/%d, seed %d):\n\
    \  counterexample: %s\n\
    \  %s\n\
    \  shrink steps: %d\n\
    \  repro: re-run this property with --seed %d" name f.case_index
    f.case_count f.seed f.counterexample f.reason f.shrink_steps f.seed

(* The runner core, returning the first failure instead of raising — so
   the reporting path itself is unit-testable (test_misc pins the
   message down against a deliberately failing property). *)
let find_failure ?(count = 200) ?(seed = default_seed) arb prop =
  let r = rand_of_seed seed in
  let rec go i =
    if i > count then None
    else
      let x = arb.gen r in
      match eval prop x with
      | None -> go (i + 1)
      | Some reason ->
        let x', reason', steps = minimize arb prop x reason in
        Some
          {
            case_index = i;
            case_count = count;
            seed;
            counterexample = arb.print x';
            reason = reason';
            shrink_steps = steps;
          }
  in
  go 1

let run_prop ?count ?seed name arb prop () =
  match find_failure ?count ?seed arb prop with
  | None -> ()
  | Some f -> Alcotest.fail (failure_message name f)

let test ?count ?seed name arb prop =
  Alcotest.test_case name `Quick (run_prop ?count ?seed name arb prop)

(* ------------------------------------------------------------------ *)
(* Stateful (state-machine) properties: generate command sequences     *)
(* against a pure model, shrink failing sequences by dropping/halving  *)
(* commands.  The system under test is exercised inside [prop], which  *)
(* receives the full command list and replays it from scratch — so     *)
(* shrunk candidates are self-contained runs, not suffixes.            *)
(* ------------------------------------------------------------------ *)

type ('cmd, 'model) machine = {
  init_model : 'model;
  gen_cmd : 'model -> rand -> 'cmd;
      (* model-aware generation: enables/biases commands by state *)
  step_model : 'model -> 'cmd -> 'model;
  print_cmd : 'cmd -> string;
}

let commands ?(max_len = 12) m =
  {
    gen =
      (fun r ->
        let n = gen_range r 0 max_len in
        let rec go model acc k =
          if k = 0 then List.rev acc
          else
            let c = m.gen_cmd model r in
            go (m.step_model model c) (c :: acc) (k - 1)
        in
        go m.init_model [] n);
    (* command shrinks would need re-generation context; drop/halve the
       sequence instead, which is what isolates a minimal trigger *)
    shrink = (fun l -> shrink_list (fun _ -> []) l);
    print = (fun l -> "[" ^ String.concat "; " (List.map m.print_cmd l) ^ "]");
  }

let test_machine ?count ?seed ?max_len name m prop =
  test ?count ?seed name (commands ?max_len m) prop
