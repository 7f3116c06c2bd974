(* Tests for the parallel execution layer (lib/sched) and the pipeline's
   determinism guarantee: the report and generated code must be
   byte-identical whatever the worker count. *)

module P = Sage.Pipeline
module Corpora = Sage.Corpora
module Pool = Sage_sched.Pool
module Metrics = Sage_sched.Metrics

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---- Pool ---- *)

let test_pool_order_preserved () =
  let items = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) items in
  List.iter
    (fun jobs ->
      check
        Alcotest.(list int)
        (Printf.sprintf "jobs=%d" jobs)
        (Array.to_list expected)
        (Array.to_list (Pool.map ~jobs (fun i -> i * i) items)))
    [ 1; 2; 4; 8 ];
  (* asking for far more workers than cores runs at most one per core *)
  let seen = Array.make 64 false in
  let around_worker id body =
    seen.(id) <- true;
    body ()
  in
  check
    Alcotest.(list int)
    "jobs=64" (Array.to_list expected)
    (Array.to_list (Pool.map ~around_worker ~jobs:64 (fun i -> i * i) items));
  let workers = Array.fold_left (fun k b -> if b then k + 1 else k) 0 seen in
  if workers > Pool.default_jobs () then
    Alcotest.failf "jobs=64 ran %d workers on a %d-core host" workers
      (Pool.default_jobs ())

let test_pool_uneven_costs () =
  (* jobs of very different cost still land at their own index *)
  let busy n =
    let acc = ref 0 in
    for i = 1 to n * 10_000 do
      acc := !acc + i
    done;
    !acc
  in
  let items = Array.init 16 (fun i -> if i mod 2 = 0 then 50 else 1) in
  let expected = Array.map busy items in
  check
    Alcotest.(list int)
    "uneven" (Array.to_list expected)
    (Array.to_list (Pool.map ~jobs:4 busy items))

exception Boom of int

let test_pool_exception_propagates () =
  List.iter
    (fun jobs ->
      match Pool.map ~jobs (fun i -> if i = 13 then raise (Boom i) else i)
              (Array.init 40 (fun i -> i))
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom 13 -> ())
    [ 1; 4 ]

(* ---- Metrics ---- *)

let test_metrics_counters_and_merge () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr ~by:4 m "a";
  check Alcotest.int "a" 5 (Metrics.counter m "a");
  check Alcotest.int "absent" 0 (Metrics.counter m "nope");
  let v = Metrics.time m "stage" (fun () -> 11) in
  check Alcotest.int "time passes value" 11 v;
  check Alcotest.(list (pair string int)) "calls" [ ("stage", 1) ] (Metrics.stage_calls m);
  let dst = Metrics.create () in
  Metrics.incr ~by:2 dst "a";
  Metrics.merge_into dst m;
  check Alcotest.int "merged" 7 (Metrics.counter dst "a")

(* ---- Pipeline determinism ---- *)

let artifact run = Sage.Report.markdown run ^ "\x00" ^ run.P.codegen.P.c_code

let test_parallel_matches_sequential () =
  List.iter
    (fun (c : Corpora.t) ->
      let seq = Corpora.run ~jobs:1 c in
      let par = Corpora.run ~jobs:4 c in
      check Alcotest.string
        (Printf.sprintf "%s: report identical under --jobs 4" c.name)
        (artifact seq) (artifact par);
      check Alcotest.int
        (Printf.sprintf "%s: no crashed sentences" c.name)
        0
        (List.length (P.crashed_sentences par)))
    Corpora.all

let test_jobs_zero_and_huge_are_safe () =
  (* degenerate worker counts must not change anything either *)
  let c = Corpus_runs.corpus "igmp" in
  let seq = Corpora.run ~jobs:1 c in
  let huge = Corpora.run ~jobs:64 c in
  check Alcotest.string "jobs=64 identical" (artifact seq) (artifact huge)

let suite =
  [
    tc "pool: order preserved across worker counts" test_pool_order_preserved;
    tc "pool: uneven job costs" test_pool_uneven_costs;
    tc "pool: exceptions propagate" test_pool_exception_propagates;
    tc "metrics: counters, time, merge, calls" test_metrics_counters_and_merge;
    tc "determinism: --jobs 4 = sequential, all corpora"
      test_parallel_matches_sequential;
    tc "determinism: degenerate job counts" test_jobs_zero_and_huge_are_safe;
  ]
