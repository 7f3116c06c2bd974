(* Shared memoized pipeline runs over the registry's corpora
   (Sage.Corpora), so the suites exercise identical runs without paying
   for the pipeline more than once per corpus. *)

module Corpora = Sage.Corpora
module Trace = Sage_trace.Trace

let corpus name = Option.get (Corpora.find name)

let memo f =
  let tbl : (string, 'a) Hashtbl.t = Hashtbl.create 8 in
  fun (c : Corpora.t) ->
    match Hashtbl.find_opt tbl c.name with
    | Some v -> v
    | None ->
      let v = f c in
      Hashtbl.replace tbl c.name v;
      v

(* Plain sequential run: what `sage run` without --trace produces. *)
let run_of = memo (fun c -> Corpora.run c)

(* The same run under a Logical-clock tracer at --jobs 1: the
   deterministic configuration the trace-format tests pin down. *)
let traced_run_of =
  memo (fun c ->
      let trace = Trace.create ~clock:Trace.Logical () in
      (Corpora.run ~jobs:1 ~trace c, trace))
