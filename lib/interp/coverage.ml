(* IR statement coverage: a counter map keyed by (function name, stable
   pre-order statement id).  Threaded through the interpreter the same
   way as tracing — a [t option] in the runtime, [None] meaning zero
   overhead — so the fuzzer can keep mutants that reach new statements.

   Comments receive ids (the numbering is shape-derived, see
   [Ir.numbered_stmts]) but are not executable: they are excluded from
   the denominator and the interpreter never records a hit for one. *)

module Ir = Sage_codegen.Ir

(* Counters are interned [int ref]s so hot loops (the compiled backend)
   can resolve a point once and bump the ref per hit instead of hashing
   a (string, int) key every statement.  [distinct] counts refs that
   left zero: interned-but-never-hit points don't count as covered. *)
type t = {
  hits : (string * int, int ref) Hashtbl.t;
  mutable distinct : int;
}

let create () = { hits = Hashtbl.create 256; distinct = 0 }

let counter t ~fn ~id =
  let key = (fn, id) in
  match Hashtbl.find_opt t.hits key with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.hits key r;
    r

let bump t r =
  if !r = 0 then t.distinct <- t.distinct + 1;
  incr r

let hit t ~fn ~id = bump t (counter t ~fn ~id)

let hit_count t ~fn ~id =
  match Hashtbl.find_opt t.hits (fn, id) with Some r -> !r | None -> 0

let covered t = t.distinct

(* The executable points of a function: every pre-order id except
   comments'.  This is the universe the interpreter can actually hit. *)
let points (f : Ir.func) =
  List.filter_map
    (fun (id, s) ->
      match (s : Ir.stmt) with Ir.Comment _ -> None | _ -> Some id)
    (Ir.numbered_stmts f.Ir.body)

type fn_stats = { fn : string; fn_covered : int; fn_points : int }

let stats t (funcs : Ir.func list) =
  List.map
    (fun (f : Ir.func) ->
      let ids = points f in
      let hit_ids =
        List.filter (fun id -> hit_count t ~fn:f.Ir.fn_name ~id > 0) ids
      in
      { fn = f.Ir.fn_name; fn_covered = List.length hit_ids;
        fn_points = List.length ids })
    (List.sort (fun a b -> compare a.Ir.fn_name b.Ir.fn_name) funcs)

let totals t funcs =
  List.fold_left
    (fun (c, p) s -> (c + s.fn_covered, p + s.fn_points))
    (0, 0) (stats t funcs)

(* Stable JSON rendering: functions sorted by name, ids ascending, so
   the --coverage-out artifact diffs cleanly across runs. *)
let to_json t (funcs : Ir.func list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"functions\": {\n";
  let fns = List.sort (fun a b -> compare a.Ir.fn_name b.Ir.fn_name) funcs in
  List.iteri
    (fun i (f : Ir.func) ->
      let ids = points f in
      let hit_ids = List.filter (fun id -> hit_count t ~fn:f.Ir.fn_name ~id > 0) ids in
      Buffer.add_string buf "    ";
      Sage_json.Json.add_string buf f.Ir.fn_name;
      Buffer.add_string buf
        (Printf.sprintf ": {\"covered\": %d, \"points\": %d, \"hits\": {"
           (List.length hit_ids) (List.length ids));
      List.iteri
        (fun j id ->
          Buffer.add_string buf
            (Printf.sprintf "%s\"%d\": %d"
               (if j = 0 then "" else ", ")
               id
               (hit_count t ~fn:f.Ir.fn_name ~id)))
        hit_ids;
      Buffer.add_string buf
        (Printf.sprintf "}}%s\n" (if i = List.length fns - 1 then "" else ",")))
    fns;
  let covered, total = totals t funcs in
  Buffer.add_string buf
    (Printf.sprintf "  },\n  \"covered\": %d,\n  \"points\": %d\n}\n" covered
       total);
  Buffer.contents buf
