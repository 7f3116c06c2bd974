module Lf = Sage_logic.Lf
module Chunker = Sage_nlp.Chunker

type rule = Lex | Fwd_app | Bwd_app | Fwd_comp | Bwd_comp | Coord | Glue | Compound

type deriv =
  | Leaf of string * Lexicon.entry
  | Node of rule * Category.t * deriv * deriv

type item = { cat : Category.t; sem : Sem.t; deriv : deriv }

type result = {
  items : item list;
  lfs : Lf.t list;
  truncated : bool;
  chunks : Chunker.chunk list;
}

let cell_capacity = 160

let rule_name = function
  | Lex -> "lex"
  | Fwd_app -> ">"
  | Bwd_app -> "<"
  | Fwd_comp -> ">B"
  | Bwd_comp -> "<B"
  | Coord -> "&"
  | Glue -> ","
  | Compound -> "N+N"

let conj_op = function
  | "and" -> Lf.p_and
  | "or" -> Lf.p_or
  | _ -> Lf.p_and (* comma read as conjunction *)

(* Combine two adjacent items with every applicable rule. *)
let combine left right =
  let out = ref [] in
  let emit rule cat sem =
    match Sem.beta_reduce sem with
    | sem -> out := { cat; sem; deriv = Node (rule, cat, left.deriv, right.deriv) } :: !out
    | exception Failure _ -> ()
  in
  (match left.cat, right.cat with
   (* forward application: X/Y Y => X *)
   | Category.Fwd (x, y), ry when Category.equal y ry ->
     emit Fwd_app x (Sem.app left.sem right.sem)
   | _ -> ());
  (match left.cat, right.cat with
   (* backward application: Y X\Y => X *)
   | ly, Category.Bwd (x, y) when Category.equal y ly ->
     emit Bwd_app x (Sem.app right.sem left.sem)
   | _ -> ());
  (match left.cat, right.cat with
   (* forward composition: X/Y Y/Z => X/Z *)
   | Category.Fwd (x, y), Category.Fwd (y', z) when Category.equal y y' ->
     emit Fwd_comp
       (Category.Fwd (x, z))
       (Sem.lam "_z" (Sem.app left.sem (Sem.app right.sem (Sem.var "_z"))))
   | _ -> ());
  (match left.cat, right.cat with
   (* backward composition: Y\Z X\Y => X\Z *)
   | Category.Bwd (y', z), Category.Bwd (x, y) when Category.equal y y' ->
     emit Bwd_comp
       (Category.Bwd (x, z))
       (Sem.lam "_z" (Sem.app right.sem (Sem.app left.sem (Sem.var "_z"))))
   | _ -> ());
  (match left.cat, right.cat, left.deriv, right.deriv with
   (* noun compounding: two adjacent *lexical* noun phrases form a
      compound ("echo reply" + "message").  Under good labels the
      dictionary pre-merges such phrases; under poor labels this rule
      keeps the sentence parseable, at the cost of more ambiguity
      (Table 7).  Restricting it to lexical items keeps the chart small
      and matches the linguistics: compounds join nouns, not derived
      phrases. *)
   | Category.Atom Category.NP, Category.Atom Category.NP, _, Leaf _ ->
     emit Compound Category.np (Sem.pred "@Compound" [ left.sem; right.sem ])
   | _ -> ());
  (match left.cat, right.cat with
   (* coordination, step 1: conj X => X\X *)
   | Category.Conj c, x when (match x with Category.Conj _ -> false | _ -> true)
     ->
     let op = conj_op c in
     emit Coord
       (Category.Bwd (x, x))
       (Sem.lam "_a" (Sem.pred op [ Sem.var "_a"; right.sem ]))
   | _ -> ());
  (match left.cat, right.cat with
   (* comma glue: absorb a bare comma on either side *)
   | x, Category.Conj "," when (match x with Category.Conj _ -> false | _ -> true)
     ->
     out := { cat = x; sem = left.sem;
              deriv = Node (Glue, x, left.deriv, right.deriv) } :: !out
   | Category.Conj ",", x when (match x with Category.Conj _ -> false | _ -> true)
     ->
     out := { cat = x; sem = right.sem;
              deriv = Node (Glue, x, left.deriv, right.deriv) } :: !out
   | _ -> ());
  !out

(* Items are deduplicated per cell on a printed (category, semantics) key:
   hashing keeps the chart polynomial where naive pairwise comparison made
   long comma-heavy sentences quadratic in the cell population. *)
let item_key it = Category.to_string it.cat ^ "|" ^ Sem.to_string it.sem

let dedup_items items =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun it ->
      let key = item_key it in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    items

let lexical_items lexicon (chunk : Chunker.chunk) =
  let phrase = String.lowercase_ascii chunk.text in
  let conj name =
    {
      cat = Category.Conj name;
      sem = Sem.lf (Lf.Str name);
      deriv =
        Leaf
          ( chunk.text,
            { Lexicon.phrase; cat = Category.Conj name; sem = Sem.lf (Lf.Str name);
              origin = Lexicon.Core } );
    }
  in
  match phrase with
  | "and" -> [ conj "and" ]
  | "or" -> [ conj "or" ]
  | "," | ";" -> [ conj "," ]
  | _ ->
    Lexicon.entries_for_chunk lexicon chunk
    |> List.map (fun (e : Lexicon.entry) ->
           { cat = e.cat; sem = e.sem; deriv = Leaf (chunk.text, e) })

(* Distributive expansion (paper §4.1 "predicate distributivity"): when the
   left argument of an @Is/@Set is a coordination, CCG can also derive the
   reading where the right-hand side distributes over the conjuncts.  We
   reproduce that over-generation here: for each applicable node, both the
   grouped and the distributed variant are emitted. *)
let imperative_root lf =
  match lf with
  | Lf.Pred (p, _) ->
    List.mem p
      [ Lf.p_action; Lf.p_send; Lf.p_set; Lf.p_discard; Lf.p_select;
        Lf.p_may; Lf.p_must; Lf.p_call; Lf.p_update ]
  | _ -> false

let expand_distribution lf =
  let rec variants lf =
    match lf with
    (* order-sensitive predicate arguments (paper §4.1): for "If A, B"
       with an imperative consequent, CCG also derives @If(B, A) *)
    | Lf.Pred (p, [ c; b ]) when p = Lf.p_if && imperative_root b ->
      List.concat_map
        (fun b' -> [ Lf.Pred (p, [ c; b' ]); Lf.Pred (p, [ b'; c ]) ])
        (variants b)
    (* coordination in the argument of a participle: "the source and
       destination addresses are reversed" can mean reverse-the-pair or
       reverse-each — CCG derives both via type raising *)
    | Lf.Pred (p, [ (Lf.Str _ as f); Lf.Pred (c, [ a; b ]) ])
      when p = Lf.p_action && (c = Lf.p_and || c = Lf.p_or) ->
      [ lf;
        Lf.Pred (c, [ Lf.Pred (p, [ f; a ]); Lf.Pred (p, [ f; b ]) ]) ]
    | Lf.Pred (p, [ Lf.Pred (c, [ a; b ]); rhs ])
      when (p = Lf.p_is || p = Lf.p_set) && (c = Lf.p_and || c = Lf.p_or) ->
      let grouped =
        List.concat_map
          (fun rhs' -> [ Lf.Pred (p, [ Lf.Pred (c, [ a; b ]); rhs' ]) ])
          (variants rhs)
      in
      let distributed =
        List.concat_map
          (fun rhs' ->
            [ Lf.Pred (c, [ Lf.Pred (p, [ a; rhs' ]); Lf.Pred (p, [ b; rhs' ]) ]) ])
          (variants rhs)
      in
      grouped @ distributed
    | Lf.Pred (p, args) ->
      let arg_variants = List.map variants args in
      let rec cartesian = function
        | [] -> [ [] ]
        | vs :: rest ->
          let tails = cartesian rest in
          List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) vs
      in
      (* cap combinatorial blow-up: a sentence with many coordinations
         would explode; 64 variants is far above anything in the corpora *)
      let combos = cartesian arg_variants in
      let combos = if List.length combos > 64 then [ args ] else combos in
      List.map (fun args' -> Lf.Pred (p, args')) combos
    | leaf -> [ leaf ]
  in
  variants lf

let parse_chunks ?(expand_distributive = true) ?(capacity = cell_capacity)
    ~lexicon chunks =
  let chunks = Array.of_list chunks in
  let n = Array.length chunks in
  if n = 0 then { items = []; lfs = []; truncated = false; chunks = [] }
  else begin
    let chart = Array.make_matrix (n + 1) (n + 1) [] in
    let truncated = ref false in
    let store i j items =
      let items = dedup_items items in
      let items =
        if List.length items > capacity then begin
          truncated := true;
          List.filteri (fun k _ -> k < capacity) items
        end
        else items
      in
      chart.(i).(j) <- items
    in
    for i = 0 to n - 1 do
      store i (i + 1) (lexical_items lexicon chunks.(i))
    done;
    for span = 2 to n do
      for i = 0 to n - span do
        let j = i + span in
        let acc = ref [] in
        for k = i + 1 to j - 1 do
          List.iter
            (fun left ->
              List.iter
                (fun right -> acc := combine left right @ !acc)
                chart.(k).(j))
            chart.(i).(k)
        done;
        store i j (List.rev !acc)
      done
    done;
    let spanning =
      List.filter (fun it -> Category.equal it.cat Category.s) chart.(0).(n)
    in
    let lfs =
      spanning
      |> List.filter_map (fun it ->
             match Sem.beta_reduce it.sem with
             | sem -> Sem.to_lf sem
             | exception Failure _ -> None)
      |> (fun lfs ->
           if expand_distributive then List.concat_map expand_distribution lfs
           else lfs)
      |> Lf.dedup
    in
    { items = spanning; lfs; truncated = !truncated; chunks = Array.to_list chunks }
  end

let parse ?strategy ?expand_distributive ?capacity ~lexicon ~dict sentence =
  let chunks = Chunker.chunk_sentence ?strategy ~dict sentence in
  (* drop the sentence-final period *)
  let chunks =
    match List.rev chunks with
    | { Chunker.tokens = [ t ]; _ } :: rest when t.Sage_nlp.Token.kind = Terminator ->
      List.rev rest
    | _ -> chunks
  in
  parse_chunks ?expand_distributive ?capacity ~lexicon chunks

let rec pp_deriv ppf = function
  | Leaf (text, entry) ->
    Fmt.pf ppf "%S := %a : %a" text Category.pp entry.Lexicon.cat Sem.pp
      entry.Lexicon.sem
  | Node (rule, cat, l, r) ->
    Fmt.pf ppf "@[<v 2>%s => %a@,%a@,%a@]" (rule_name rule) Category.pp cat
      pp_deriv l pp_deriv r
