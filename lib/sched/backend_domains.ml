(* OCaml >= 5 backend: real domains and mutexes.  Copied to
   sched_backend.ml by a dune rule when the compiler supports it. *)

let default_jobs () = max 1 (Domain.recommended_domain_count ())
let self_id () = (Domain.self () :> int)

type handle = unit Domain.t

let spawn f = Domain.spawn f
let join h = Domain.join h

type mutex = Mutex.t

let mutex () = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception exn ->
    Mutex.unlock m;
    raise exn
