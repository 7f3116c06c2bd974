(* Sequential fallback backend for compilers without Domain (OCaml 4.x).
   Copied to sched_backend.ml by a dune rule.  [spawn] runs the worker
   in-line, so the work-queue in Pool still drains every job — on the
   caller's own thread — and locks cost nothing. *)

let default_jobs () = 1
let self_id () = 0

type handle = unit

let spawn f = f ()
let join () = ()

type mutex = unit

let mutex () = ()
let with_lock () f = f ()
