(* Tests for the benchmark's own logic: input generation, the
   percentile rule, span self times and counted work. *)

open Sagebench
module Trace = Sage_trace.Trace

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---- generated inputs ---- *)

let sentences =
  [| "If code = 0, an identifier to aid in matching echos and replies, may be zero.";
     "The checksum is the 16-bit one's complement of the one's complement sum.";
     "Unused." |]

let texts ~seed ~cycle =
  Array.map (fun (m : Mutate.mutant) -> m.Mutate.text)
    (Mutate.cycle ~seed ~cap:2 ~cycle sentences)

let mix_bytes ~seed =
  Array.map Mix.datagram (Mix.cycle ~seed ~cycle:0 10)

let test_same_seed_same_inputs () =
  check Alcotest.(array string) "mutants" (texts ~seed:5 ~cycle:1) (texts ~seed:5 ~cycle:1);
  check Alcotest.bool "datagrams" true
    (Array.for_all2 Bytes.equal (mix_bytes ~seed:5) (mix_bytes ~seed:5))

let test_other_seed_other_inputs () =
  check Alcotest.bool "mutants differ" true (texts ~seed:5 ~cycle:1 <> texts ~seed:6 ~cycle:1);
  check Alcotest.bool "datagrams differ" false
    (Array.for_all2 Bytes.equal (mix_bytes ~seed:5) (mix_bytes ~seed:6))

let test_mutant_families () =
  let ms = Mutate.cycle ~seed:3 ~cap:2 ~cycle:0 sentences in
  let names = Array.to_list (Array.map (fun (m : Mutate.mutant) -> Mutate.family_name m.Mutate.family) ms) in
  (* grouped by family, lightest first; only the first sentence has a
     comma, and the one-word sentence has nothing to drop *)
  check Alcotest.(list string) "families"
    [ "control"; "control"; "control"; "drop-word"; "drop-word"; "dup-word"; "dup-word";
      "dup-word"; "comma-repeat-k1"; "comma-repeat-k2" ]
    names;
  check Alcotest.string "leading comma phrase repeated twice"
    "If code = 0, If code = 0, If code = 0, an identifier to aid in matching echos and \
     replies, may be zero."
    ms.(9).Mutate.text

let test_mix_shares () =
  let items = Mix.cycle ~seed:1 ~cycle:0 4 in
  let count k = Array.fold_left (fun a (it : Mix.item) -> if it.Mix.kind = k then a + 1 else a) 0 items in
  List.iter (fun (k, n) -> check Alcotest.int (Mix.kind_name k) (4 * n) (count k)) Mix.round;
  check Alcotest.int "four rounds" (4 * Mix.round_len) (Array.length items);
  check Alcotest.bool "interop pings carry ping's 56-byte default, to the server" true
    (Array.for_all
       (fun (it : Mix.item) -> it.Mix.kind <> Mix.Echo_ping || (it.Mix.len = 56 && it.Mix.dst = Mix.Server1))
       items);
  check Alcotest.bool "smallest echo payload present" true
    (Array.exists (fun (it : Mix.item) -> it.Mix.len = 0) items)

(* ---- percentiles ---- *)

let test_percentile_rule () =
  let tail = Stats.tail_permille in
  check Alcotest.int "19 samples: median" 500 (tail 19);
  check Alcotest.int "20 samples: p50 has 10 beyond" 500 (tail 20);
  check Alcotest.int "39 samples: p75 has 9 beyond" 500 (tail 39);
  check Alcotest.int "40 samples: p75" 750 (tail 40);
  check Alcotest.int "100 samples: p90" 900 (tail 100);
  check Alcotest.int "199 samples: p90" 900 (tail 199);
  check Alcotest.int "200 samples: p95" 950 (tail 200);
  check Alcotest.int "1000 samples: p99" 990 (tail 1000);
  check Alcotest.int "100000 samples: p99 is the highest candidate" 990 (tail 100000);
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 0.) "p50 of 1..10" 5. (Stats.percentile_sorted ten 500);
  check (Alcotest.float 0.) "p90 of 1..10" 9. (Stats.percentile_sorted ten 900);
  check (Alcotest.float 0.) "p95 of 1..10" 10. (Stats.percentile_sorted ten 950);
  check (Alcotest.float 0.) "p0.1 of 1..10" 1. (Stats.percentile_sorted ten 1);
  check (Alcotest.float 0.) "median, unsorted" 2. (Stats.median [| 3.; 1.; 2. |])

let test_iqm () =
  check (Alcotest.float 0.) "middle half of 1..8" 4.5
    (Stats.iqm (Array.init 8 (fun i -> float_of_int (i + 1))));
  check (Alcotest.float 0.) "outliers do not count" 2.5 (Stats.iqm [| 1000.; 2.; 3.; -1000. |]);
  check (Alcotest.float 0.) "one sample" 7. (Stats.iqm [| 7. |]);
  (* two clusters: the median jumps with one sample, the iqm does not *)
  let a = [| 1.; 1.; 1.; 1.; 9.; 9.; 9.; 9. |] and b = [| 1.; 1.; 1.; 2.; 9.; 9.; 9.; 9. |] in
  check (Alcotest.float 0.) "median at a cluster edge" 1. (Stats.median a);
  check (Alcotest.float 1e-9) "iqm moves by a quarter of the change" 0.25 (Stats.iqm b -. Stats.iqm a)

(* ---- host speed ---- *)

(* Samples every 10 ns from t = 10; the kernel runs at nominal speed,
   then at half speed from t = 100. *)
let calib () =
  let c = Calib.create () in
  for i = 1 to 20 do
    c.Calib.at.{i - 1} <- 10 * i;
    c.Calib.ns.{i - 1} <- (if 10 * i < 100 then Calib.nominal_ns else 2. *. Calib.nominal_ns)
  done;
  c.Calib.n <- 20;
  c

let test_calib_factor () =
  let c = calib () in
  let f t0 t1 = Calib.factor c ~t0 ~t1 in
  check (Alcotest.float 0.) "fast spell" 1. (f 40 45);
  check (Alcotest.float 0.) "slow spell: the kernel takes twice as long" 0.5
    (f 150 155);
  check (Alcotest.float 0.) "an op spanning both: the samples inside count" 0.5 (f 50 190);
  check (Alcotest.float 0.) "after the last sample: the last window" 0.5 (f 500 505);
  check (Alcotest.float 0.) "before the first sample" 1. (f 0 1)

(* ---- self time ---- *)

let ev ?(args = []) name ph ts span_id =
  { Trace.name; cat = ""; ph; ts = Int64.of_int ts; tid = 0; span_id; args }

let own ns words = [ ("ns", Trace.Int ns); ("words", Trace.Int words) ]

(* A(100ns, 50w) > [ B(30, 10) ; C(20, 5) > D(program, 8) > E(5, 2) ] *)
let tree =
  [ ev "A" Trace.Begin 0 1 ~args:[ ("op", Trace.Int 7) ];
    ev "B" Trace.Begin 1 2; ev "B" Trace.End 31 2 ~args:(own 30 10);
    ev "C" Trace.Begin 40 3;
    ev "D" Trace.Begin 41 4;
    ev "E" Trace.Begin 42 5; ev "E" Trace.End 47 5 ~args:(own 5 2);
    ev "D" Trace.End 49 4;
    ev "C" Trace.End 60 3 ~args:(own 20 5);
    ev "A" Trace.End 100 1 ~args:(own 100 50) ]

let test_self_time () =
  let nodes = Spans.nodes tree in
  let find n = List.find (fun (x : Spans.node) -> x.Spans.name = n) nodes in
  let self n = ((find n).Spans.self_ns, (find n).Spans.self_words) in
  let pair = Alcotest.(pair int int) in
  check pair "A" (50, 35) (self "A");
  check pair "B" (30, 10) (self "B");
  check pair "C: the program span's duration, its own span's words" (12, 3) (self "C");
  check Alcotest.int "D: program span, timed by the tracer" 3 (find "D").Spans.self_ns;
  check pair "E" (5, 2) (self "E");
  check Alcotest.(option string) "parent" (Some "C") (find "D").Spans.parent;
  check Alcotest.int "op id inherited" 7 (find "E").Spans.op

(* ---- counted work ---- *)

(* Library caches warm up within a process, so counted work repeats
   across runs of the benchmark, not across repeats inside one. *)
let alloc_words_per_op ~seed =
  let ic =
    Unix.open_process_in
      (Printf.sprintf "./main.exe --workload packet-path --seed %d --seconds 0 --trace 0 2>/dev/null"
         seed)
  in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  check Alcotest.bool "run succeeded" true (Unix.close_process_in ic = Unix.WEXITED 0);
  let key = "\"alloc_words_per_op\": {\"value\": " in
  let rec find i =
    if String.sub !last i (String.length key) = key then i + String.length key else find (i + 1)
  in
  let start = find 0 in
  float_of_string (String.sub !last start (String.index_from !last start ',' - start))

let test_alloc_repeats () =
  check (Alcotest.float 0.) "same seed, same words per op" (alloc_words_per_op ~seed:11)
    (alloc_words_per_op ~seed:11)

let () =
  Alcotest.run "sagebench"
    [ ( "inputs",
        [ tc "same seed gives byte-identical mutants and datagrams" test_same_seed_same_inputs;
          tc "another seed gives other mutants and datagrams" test_other_seed_other_inputs;
          tc "mutant families of a cycle" test_mutant_families;
          tc "datagram mix holds the stated shares" test_mix_shares ] );
      ( "stats",
        [ tc "tail percentile rule on small arrays" test_percentile_rule;
          tc "interquartile mean" test_iqm;
          tc "host speed factor over a change of speed" test_calib_factor ] );
      ("spans", [ tc "self time on a synthetic span tree" test_self_time ]);
      ("work", [ tc "same seed repeats alloc words per op exactly" test_alloc_repeats ]) ]
