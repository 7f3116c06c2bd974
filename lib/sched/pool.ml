let default_jobs () = max 1 (Domain.recommended_domain_count ())

let no_hook (_ : int) body = body ()

let map ?(around_worker = no_hook) ~jobs f items =
  let n = Array.length items in
  (* workers beyond the item count or the host's cores only contend *)
  let jobs = if jobs <= 1 then jobs else min (min jobs n) (default_jobs ()) in
  if n = 0 then [||]
  else if jobs <= 1 then begin
    let out = ref [||] in
    around_worker 0 (fun () -> out := Array.map f items);
    !out
  end
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let error = Atomic.make None in
    let worker id () =
      around_worker id (fun () ->
          let continue = ref true in
          while !continue do
            let i = Atomic.fetch_and_add next 1 in
            if i >= n || Atomic.get error <> None then continue := false
            else
              match f items.(i) with
              | v -> results.(i) <- Some v
              | exception exn ->
                ignore (Atomic.compare_and_set error None (Some exn))
          done)
    in
    (* jobs - 1 spawned workers; the calling thread is worker 0 *)
    let handles =
      List.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1)))
    in
    worker 0 ();
    List.iter Domain.join handles;
    (match Atomic.get error with Some exn -> raise exn | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end
