(* The coverage-guided differential fuzzer (lib/fuzz): PRNG stability,
   grammar-based generation, coverage instrumentation, the oracle
   suite, engine determinism, and the seeded-bug fixture that proves
   the loop can find, shrink and report a real disagreement. *)

module Rng = Sage_fuzz.Rng
module Gen = Sage_fuzz.Gen
module Driver = Sage_fuzz.Driver
module Oracle = Sage_fuzz.Oracle
module Engine = Sage_fuzz.Engine
module Seeded_bug = Sage_fuzz.Seeded_bug
module Backend = Sage_backend.Backend
module Coverage = Sage_interp.Coverage
module Ir = Sage_codegen.Ir
module Pv = Sage_interp.Packet_view
module Hd = Sage_rfc.Header_diagram
module Checksum = Sage_net.Checksum
module Icmp = Sage_net.Icmp
module Trace = Sage_trace.Trace
module Metrics = Sage_sched.Metrics
module P = Sage.Pipeline
module C = Corpus_runs
module Corpora = Sage.Corpora

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* ---- shared targets ---- *)


let targets_of (run : P.run) =
  List.filter_map
    (fun (f : Ir.func) ->
      Option.map
        (fun sd -> (f, sd))
        (List.assoc_opt f.Ir.fn_name run.P.codegen.P.struct_of_function))
    run.P.codegen.P.functions

let run_of name = C.run_of (C.corpus name)

let layout_of run fn =
  List.assoc fn run.P.codegen.P.struct_of_function

let func_of (run : P.run) fn =
  List.find (fun f -> f.Ir.fn_name = fn) run.P.codegen.P.functions

let echo_fn = "icmp_echo_sender"

(* most driver/oracle tests execute on the interpreter backend; the
   compiled backend gets its own differential suite (test_backend) *)
let load_interp f layout = Backend.load Backend.Interp ~layout f

(* ---- rng ---- *)

let test_rng_deterministic () =
  let a = Rng.of_seed 42 and b = Rng.of_seed 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_stable () =
  (* recorded draw: guards against accidental algorithm changes, which
     would silently invalidate every recorded fuzz/property result *)
  let r = Rng.of_seed 0 in
  check Alcotest.int64 "splitmix64(seed 0) first draw" 0x6E789E6AA1B965F4L
    (Rng.next_int64 r)

let test_rng_bounds () =
  let r = Rng.of_seed 7 in
  for _ = 1 to 500 do
    let v = Rng.int_below r 10 in
    checkb "in [0,10)" true (v >= 0 && v < 10);
    let w = Rng.range r 3 5 in
    checkb "in [3,5]" true (w >= 3 && w <= 5)
  done;
  Alcotest.check_raises "int_below 0"
    (Invalid_argument "Sage_fuzz.Rng.int_below") (fun () ->
      ignore (Rng.int_below r 0))

(* The limb implementation must be bit-identical to the boxed Int64
   splitmix64 it replaced — this is the assertion rng.ml's header
   comment points at.  The reference below is the direct Int64
   formulation of the same algorithm. *)
let test_rng_matches_int64_reference () =
  let next_ref st =
    st := Int64.add !st 0x9E3779B97F4A7C15L;
    let z = !st in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let ref_of_seed seed =
    ref (Int64.add (Int64.of_int seed) 0x9E3779B97F4A7C15L)
  in
  List.iter
    (fun seed ->
      let a = Rng.of_seed seed and b = ref_of_seed seed in
      for _ = 1 to 5000 do
        check Alcotest.int64 "limb stream = Int64 stream" (next_ref b)
          (Rng.next_int64 a)
      done;
      (* int_below across both reduction paths (native below 2^30, the
         Int64 fallback above it) *)
      let a = Rng.of_seed seed and b = ref_of_seed seed in
      List.iter
        (fun n ->
          for _ = 1 to 500 do
            let expect =
              Int64.to_int
                (Int64.rem
                   (Int64.logand (next_ref b) Int64.max_int)
                   (Int64.of_int n))
            in
            checki "int_below = Int64 reduction" expect (Rng.int_below a n)
          done)
        [ 1; 2; 3; 24; 256; 65536; 0x3FFFFFFF; 0x40000000; 0x7FFFFFFFF ])
    [ 0; 1; 42; -7; 123456789; max_int; min_int ]

let test_rng_bits32 () =
  (* bits32 advances the stream exactly like any other draw and
     returns the draw's low 32 bits *)
  let a = Rng.of_seed 31 and b = Rng.of_seed 31 in
  for _ = 1 to 200 do
    let w = Rng.bits32 a in
    let z = Rng.next_int64 b in
    checkb "32-bit range" true (w >= 0 && w <= 0xFFFFFFFF);
    check Alcotest.int64 "low 32 bits of the draw"
      (Int64.logand z 0xFFFFFFFFL)
      (Int64.of_int w)
  done

let test_rng_split () =
  let a = Rng.of_seed 9 in
  let b = Rng.split a in
  let xa = Rng.next_int64 a and xb = Rng.next_int64 b in
  checkb "split stream differs from parent" true (not (Int64.equal xa xb));
  (* replay: same construction, same streams *)
  let a' = Rng.of_seed 9 in
  let b' = Rng.split a' in
  check Alcotest.int64 "parent replays" xa (Rng.next_int64 a');
  check Alcotest.int64 "child replays" xb (Rng.next_int64 b')

let test_qcheck_lite_shares_rng () =
  let a = Qcheck_lite.rand_of_seed 123 and b = Rng.of_seed 123 in
  check Alcotest.int64 "one PRNG for harness and fuzzer"
    (Qcheck_lite.next_int64 a) (Rng.next_int64 b)

(* ---- gen ---- *)

let echo_layout () = layout_of (run_of "icmp") echo_fn

let test_gen_packet_valid () =
  let layout = echo_layout () in
  let r = Rng.of_seed 1 in
  for _ = 1 to 50 do
    let b = Gen.packet r layout in
    checkb "covers the fixed header" true
      (Bytes.length b >= Pv.fixed_bytes layout);
    match Pv.deserialize layout b with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "generated packet rejected: %s" e
  done

let test_gen_deterministic () =
  let layout = echo_layout () in
  let gen seed =
    let r = Rng.of_seed seed in
    List.init 20 (fun _ -> Bytes.to_string (Gen.packet r layout))
  in
  check Alcotest.(list string) "same seed, same packets" (gen 5) (gen 5)

let test_gen_field_boundaries () =
  let layout = echo_layout () in
  check
    Alcotest.(list int)
    "icmp echo boundaries" [ 0; 1; 2; 4; 6 ]
    (Gen.field_boundaries layout)

let test_gen_checksum_byte () =
  check
    Alcotest.(option int)
    "icmp checksum offset" (Some 2)
    (Gen.checksum_byte (echo_layout ()));
  let bfd_layout =
    layout_of (run_of "bfd") "bfd_reception_of_bfd_control_packets_sender"
  in
  check Alcotest.(option int) "bfd has no checksum field" None
    (Gen.checksum_byte bfd_layout)

let test_gen_mutate () =
  let layout = echo_layout () in
  let r = Rng.of_seed 11 in
  let seedpkt = Gen.packet r layout in
  for _ = 1 to 100 do
    let m = Gen.mutate r layout seedpkt in
    (* mutants never alias the input buffer *)
    checkb "fresh buffer" false (m == seedpkt)
  done;
  let fresh = Gen.mutate r layout Bytes.empty in
  checkb "empty input mutates to a fresh packet" true (Bytes.length fresh > 0)

let test_gen_tail_slicing_refill () =
  (* the tail generator slices four bytes out of every bits32 draw;
     replay the stream by hand and check the slices land byte-for-byte,
     including the refill edge where byte 4 needs a fresh draw *)
  let layout = echo_layout () in
  let cl = Sage_backend.Layout.of_layout layout in
  let fixed = Pv.fixed_bytes layout in
  let rec find seed tries =
    if tries = 0 then Alcotest.fail "no packet with a 5+ byte tail found"
    else
      let p = Gen.packet (Rng.of_seed seed) layout in
      if Bytes.length p >= fixed + 5 then (seed, Bytes.length p - fixed)
      else find (seed + 1) (tries - 1)
  in
  let seed, tail_len = find 0 200 in
  let r = Rng.of_seed seed in
  Array.iter
    (fun (f : Sage_backend.Layout.field) ->
      ignore (Gen.field_value r ~bits:f.Sage_backend.Layout.bits))
    cl.Sage_backend.Layout.fields;
  checkb "tail branch taken" true (Rng.int_below r 4 >= 2);
  checki "tail length replays" tail_len (Rng.range r 1 24);
  let expect = Bytes.create tail_len in
  let i = ref 0 in
  while !i < tail_len do
    let w = Rng.bits32 r in
    let stop = min tail_len (!i + 4) in
    let k = ref 0 in
    while !i < stop do
      Bytes.set expect !i (Char.chr ((w lsr (!k * 8)) land 0xff));
      incr i;
      incr k
    done
  done;
  let p = Gen.packet (Rng.of_seed seed) layout in
  check Alcotest.string "tail bytes slice four-per-draw with refill"
    (Bytes.to_string expect)
    (Bytes.to_string (Bytes.sub p fixed tail_len))

let test_gen_mutate_single_byte () =
  (* one-byte packets hit every mutation arm's boundary: field-boundary
     truncation can only cut at offset 0 (empty result), checksum
     corruption falls back to the last byte, appends grow *)
  let layout = echo_layout () in
  let r = Rng.of_seed 13 in
  let one = Bytes.make 1 '\xAB' in
  let saw_empty = ref false and saw_growth = ref false in
  for _ = 1 to 200 do
    let m = Gen.mutate r layout one in
    (match Bytes.length m with
     | 0 -> saw_empty := true
     | n when n > 1 -> saw_growth := true
     | _ -> ());
    checkb "input untouched" true (Bytes.get one 0 = '\xAB')
  done;
  checkb "truncation to empty reachable" true !saw_empty;
  checkb "tail growth reachable" true !saw_growth

let test_gen_shrink_single_byte () =
  check
    Alcotest.(list string)
    "single zero byte shrinks to empty only" [ "" ]
    (List.map Bytes.to_string (Gen.shrink_candidates (Bytes.make 1 '\000')));
  let cands =
    List.map Bytes.to_string (Gen.shrink_candidates (Bytes.make 1 '\x7f'))
  in
  checkb "drop-last offered" true (List.mem "" cands);
  checkb "zeroing offered" true (List.mem "\000" cands)

let test_gen_shrink_candidates () =
  check Alcotest.(list string) "empty shrinks to nothing" []
    (List.map Bytes.to_string (Gen.shrink_candidates Bytes.empty));
  let b = Bytes.of_string "\x01\x02\x03\x04" in
  let cands = Gen.shrink_candidates b in
  checkb "has candidates" true (cands <> []);
  List.iter
    (fun c -> checkb "strictly different" true (not (Bytes.equal c b)))
    cands;
  checkb "halving offered" true
    (List.exists (fun c -> Bytes.length c = 2) cands);
  checkb "zeroing offered" true
    (List.exists
       (fun c ->
         Bytes.length c = 4
         && not (Bytes.exists (fun ch -> ch <> '\000') c))
       cands)

(* ---- statement ids / coverage ---- *)

let test_numbered_stmts () =
  let body =
    [
      Ir.Assign (Ir.Lvar "a", Ir.Int 1);
      Ir.If
        ( Ir.Int 1,
          [ Ir.Assign (Ir.Lvar "b", Ir.Int 2); Ir.Discard ],
          [ Ir.Comment "else" ] );
      Ir.Send "done";
    ]
  in
  checki "extent counts nested statements" 6 (Ir.extent body);
  let ids = Ir.numbered_stmts body in
  checki "one id per statement" 6 (List.length ids);
  let id_list = List.map fst ids in
  checki "ids unique" 6 (List.length (List.sort_uniq compare id_list));
  (* pre-order: if at 1, then-branch 2..3, else-branch 4, send at 5 *)
  check Alcotest.(list int) "pre-order numbering" [ 0; 1; 2; 3; 4; 5 ] id_list

let test_coverage_points_skip_comments () =
  let f =
    {
      Ir.fn_name = "f";
      protocol = "X";
      message = "m";
      role = Ir.Sender;
      body =
        [ Ir.Comment "doc"; Ir.Assign (Ir.Lvar "a", Ir.Int 1); Ir.Discard ];
    }
  in
  check Alcotest.(list int) "comments are not coverage points" [ 1; 2 ]
    (Coverage.points f)

let test_coverage_execution () =
  let run = run_of "icmp" in
  let f = func_of run echo_fn in
  let layout = layout_of run echo_fn in
  let cov = Coverage.create () in
  let env = Driver.env_of (Rng.of_seed 3) in
  let packet = Gen.packet (Rng.of_seed 3) layout in
  (match Driver.exec ~coverage:cov ~env (load_interp f layout) packet with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "exec rejected: %s" e);
  let covered, points = Coverage.totals cov [ f ] in
  checkb "some statements covered" true (covered > 0);
  checkb "covered <= points" true (covered <= points);
  checki "points match static count" (List.length (Coverage.points f)) points

let test_coverage_json_deterministic () =
  let run = run_of "icmp" in
  let f = func_of run echo_fn in
  let layout = layout_of run echo_fn in
  let json seed =
    let cov = Coverage.create () in
    let env = Driver.env_of (Rng.of_seed seed) in
    let packet = Gen.packet (Rng.of_seed seed) layout in
    ignore (Driver.exec ~coverage:cov ~env (load_interp f layout) packet);
    Coverage.to_json cov [ f ]
  in
  check Alcotest.string "same run serializes identically" (json 3) (json 3);
  let j = json 3 in
  checkb "names the function" true (contains j echo_fn)

(* ---- driver ---- *)

let test_driver_env_deterministic () =
  let e1 = Driver.env_of (Rng.of_seed 21) in
  let e2 = Driver.env_of (Rng.of_seed 21) in
  checkb "env replays" true (e1 = e2)

let test_driver_rejects_short () =
  let run = run_of "icmp" in
  let f = func_of run echo_fn in
  let layout = layout_of run echo_fn in
  let env = Driver.env_of (Rng.of_seed 1) in
  match Driver.exec ~env (load_interp f layout) (Bytes.make 3 '\000') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "3-byte packet must be a structural reject"

let test_driver_echo_checksum () =
  let run = run_of "icmp" in
  let f = func_of run echo_fn in
  let layout = layout_of run echo_fn in
  let env = Driver.env_of (Rng.of_seed 5) in
  let packet = Gen.packet (Rng.of_seed 5) layout in
  match Driver.exec ~env (load_interp f layout) packet with
  | Error e -> Alcotest.failf "exec rejected: %s" e
  | Ok o ->
    checkb "echo sender assigns the checksum" true o.Backend.assigns_checksum;
    check Alcotest.(option string) "no runtime error" None o.Backend.error;
    checkb "not discarded" true (not o.Backend.discarded);
    checkb "output verifies" true (Checksum.verify o.Backend.output)

let test_driver_deterministic () =
  let run = run_of "icmp" in
  let f = func_of run echo_fn in
  let layout = layout_of run echo_fn in
  let out seed =
    let env = Driver.env_of (Rng.of_seed seed) in
    let packet = Gen.packet (Rng.of_seed seed) layout in
    match Driver.exec ~env (load_interp f layout) packet with
    | Ok o -> Bytes.to_string o.Backend.output
    | Error e -> Alcotest.failf "exec rejected: %s" e
  in
  check Alcotest.string "same (env, packet), same output" (out 5) (out 5)

(* ---- oracle ---- *)

let echo_outcome seed =
  let run = run_of "icmp" in
  let f = func_of run echo_fn in
  let layout = layout_of run echo_fn in
  let env = Driver.env_of (Rng.of_seed seed) in
  let packet = Gen.packet (Rng.of_seed seed) layout in
  match Driver.exec ~env (load_interp f layout) packet with
  | Ok o -> (packet, o)
  | Error e -> Alcotest.failf "exec rejected: %s" e

let test_oracle_clean_on_echo () =
  let packet, o = echo_outcome 5 in
  match Oracle.check ~protocol:"ICMP" ~packet o with
  | None -> ()
  | Some v -> Alcotest.failf "unexpected %s: %s" (Oracle.kind_name v.Oracle.kind) v.Oracle.detail

let test_oracle_never_raise () =
  let packet, o = echo_outcome 6 in
  let o = { o with Backend.error = Some "synthetic failure" } in
  match Oracle.check ~protocol:"ICMP" ~packet o with
  | Some { Oracle.kind = Oracle.Never_raise; _ } -> ()
  | _ -> Alcotest.fail "runtime error must trip the never-raise oracle"

let test_oracle_checksum () =
  let packet, o = echo_outcome 7 in
  (* corrupt the produced message's checksum *)
  let bad = Bytes.copy o.Backend.output in
  Bytes.set bad 2 (Char.chr (Char.code (Bytes.get bad 2) lxor 0xff));
  let o = { o with Backend.output = bad } in
  match Oracle.check ~protocol:"ICMP" ~packet o with
  | Some { Oracle.kind = Oracle.Checksum; _ } -> ()
  | Some v -> Alcotest.failf "wrong oracle: %s" (Oracle.kind_name v.Oracle.kind)
  | None -> Alcotest.fail "corrupt checksum must trip the checksum oracle"

let test_oracle_kind_names () =
  check
    Alcotest.(list string)
    "stable oracle names"
    [ "never-raise"; "round-trip"; "decoder-agreement"; "backend-agreement";
      "checksum"; "verified-output" ]
    (List.map Oracle.kind_name
       [ Oracle.Never_raise; Oracle.Round_trip; Oracle.Decoder_agreement;
         Oracle.Backend_agreement; Oracle.Checksum; Oracle.Verified_output ])

let test_observe_agrees_with_view () =
  (* encode a typed echo, decode through both sides, compare *)
  let msg =
    Icmp.Echo
      { Icmp.echo_code = 0; identifier = 0x1234; sequence = 7;
        payload = Bytes.of_string "hi" }
  in
  let b = Icmp.encode msg in
  match Sage_net.Observe.fields ~protocol:"ICMP" b with
  | None -> Alcotest.fail "reference decoder rejected its own encoding"
  | Some obs ->
    check Alcotest.(option int64) "type" (Some 8L) (List.assoc_opt "type" obs);
    check Alcotest.(option int64) "identifier" (Some 0x1234L)
      (List.assoc_opt "identifier" obs);
    let layout = echo_layout () in
    (match Pv.deserialize layout b with
     | Error e -> Alcotest.failf "layout rejected: %s" e
     | Ok view ->
       List.iter
         (fun (name, expected) ->
           match Pv.get view name with
           | Error _ -> ()
           | Ok got ->
             check Alcotest.int64 ("field " ^ name) expected got)
         obs)

(* ---- engine ---- *)

let small_iters = 400

let engine_result ?trace ?metrics ?(seed = 42) ?(iters = small_iters) name =
  let run = run_of name in
  Engine.run ?trace ?metrics ~seed ~iters ~protocol:run.P.spec.P.protocol
    (targets_of run)

let test_engine_deterministic () =
  let s1 = Engine.summary (engine_result "icmp") in
  let s2 = Engine.summary (engine_result "icmp") in
  check Alcotest.string "byte-identical summaries" s1 s2

let test_engine_no_findings_all_corpora () =
  List.iter
    (fun (c : Corpora.t) ->
      let r = engine_result c.name in
      checki
        (Printf.sprintf "zero findings on %s" c.name)
        0
        (List.length r.Engine.findings))
    Corpora.all

let test_engine_icmp_coverage_floor () =
  let r = engine_result ~iters:2000 "icmp" in
  let covered, points = Coverage.totals r.Engine.coverage r.Engine.funcs in
  checkb
    (Printf.sprintf "icmp coverage %d/%d >= 80%%" covered points)
    true
    (covered * 100 >= points * 80)

let test_engine_corpus_grows () =
  let r = engine_result "icmp" in
  checkb "coverage-guided corpus is non-empty" true (r.Engine.corpus > 0);
  checki "iterations counted" small_iters r.Engine.iters;
  checki "every packet accounted for" small_iters
    (r.Engine.executions + r.Engine.rejected)

let test_engine_empty_targets () =
  Alcotest.check_raises "no targets"
    (Invalid_argument "Sage_fuzz.Engine.run: no targets") (fun () ->
      ignore (Engine.run ~seed:1 ~iters:1 ~protocol:"ICMP" []))

let test_engine_metrics () =
  let m = Metrics.create () in
  let r = engine_result ~metrics:m "icmp" in
  checki "fuzz.iterations" small_iters (Metrics.counter m "fuzz.iterations");
  checki "fuzz.executions" r.Engine.executions
    (Metrics.counter m "fuzz.executions");
  checki "fuzz.findings" 0 (Metrics.counter m "fuzz.findings");
  checkb "fuzz.coverage.points > 0" true
    (Metrics.counter m "fuzz.coverage.points" > 0)

let test_engine_trace () =
  let tracer = Trace.create ~clock:Trace.Logical () in
  ignore (engine_result ~trace:tracer ~iters:50 "icmp");
  let events = Trace.events tracer in
  let fuzz_events = List.filter (fun (e : Trace.event) -> e.Trace.cat = "fuzz") events in
  checkb "fuzz-category events emitted" true (fuzz_events <> []);
  checkb "fuzz-iteration spans" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.name = "fuzz-iteration")
       fuzz_events);
  checkb "coverage-hit instants" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.name = "coverage-hit")
       fuzz_events)

(* ---- seeded bug ---- *)

let seeded_result ?(seed = 42) ?(iters = 500) () =
  let run = run_of "icmp" in
  let funcs =
    Seeded_bug.tamper_checksum ~fn:Seeded_bug.default_target
      run.P.codegen.P.functions
  in
  let targets =
    List.filter_map
      (fun (f : Ir.func) ->
        Option.map
          (fun sd -> (f, sd))
          (List.assoc_opt f.Ir.fn_name run.P.codegen.P.struct_of_function))
      funcs
  in
  Engine.run ~seed ~iters ~protocol:run.P.spec.P.protocol targets

let test_seeded_bug_one_finding () =
  let r = seeded_result () in
  checki "exactly one finding" 1 (List.length r.Engine.findings);
  let fd = List.hd r.Engine.findings in
  check Alcotest.string "in the tampered function" Seeded_bug.default_target
    fd.Engine.fn;
  checkb "checksum oracle" true (fd.Engine.kind = Oracle.Checksum);
  checkb "shrunk no larger than trigger" true
    (Bytes.length fd.Engine.shrunk <= Bytes.length fd.Engine.packet);
  (* the echo layout's fixed header is 8 bytes; greedy shrinking must
     reach it (nothing smaller executes) *)
  checki "shrunk to the minimal executable packet" 8
    (Bytes.length fd.Engine.shrunk)

let test_seeded_bug_deterministic () =
  let s1 = Engine.summary (seeded_result ()) in
  let s2 = Engine.summary (seeded_result ()) in
  check Alcotest.string "seeded-bug run replays" s1 s2

let test_seeded_bug_tamper_is_targeted () =
  let run = run_of "icmp" in
  let funcs = run.P.codegen.P.functions in
  let tampered = Seeded_bug.tamper_checksum ~fn:Seeded_bug.default_target funcs in
  checki "same function count" (List.length funcs) (List.length tampered);
  List.iter2
    (fun (a : Ir.func) (b : Ir.func) ->
      if a.Ir.fn_name = Seeded_bug.default_target then
        checkb "target body changed" true (a.Ir.body <> b.Ir.body)
      else checkb ("untouched " ^ a.Ir.fn_name) true (a.Ir.body = b.Ir.body))
    funcs tampered

let test_shrink_keeps_oracle () =
  let run = run_of "icmp" in
  let funcs =
    Seeded_bug.tamper_checksum ~fn:Seeded_bug.default_target
      run.P.codegen.P.functions
  in
  let f = List.find (fun f -> f.Ir.fn_name = Seeded_bug.default_target) funcs in
  let layout = layout_of run Seeded_bug.default_target in
  let env = Driver.env_of (Rng.of_seed 2) in
  let packet = Gen.packet (Rng.of_seed 2) layout in
  let shrunk, detail, _steps =
    Engine.shrink ~protocol:"ICMP" ~env (load_interp f layout)
      ~kind:Oracle.Checksum packet
  in
  checkb "shrunk still violates" true (detail <> None);
  checkb "monotone" true (Bytes.length shrunk <= Bytes.length packet)

let test_summary_shape () =
  let s = Engine.summary (engine_result "icmp") in
  List.iter
    (fun needle ->
      checkb ("summary mentions " ^ needle) true (contains s needle))
    [ "protocol   : ICMP"; "seed       : 42"; "coverage   :"; "findings   : 0" ]

let suite =
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: recorded first draw" `Quick test_rng_stable;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: limbs match Int64 reference" `Quick
      test_rng_matches_int64_reference;
    Alcotest.test_case "rng: bits32 slices the draw" `Quick test_rng_bits32;
    Alcotest.test_case "gen: tail slicing and refill edge" `Quick
      test_gen_tail_slicing_refill;
    Alcotest.test_case "rng: split streams" `Quick test_rng_split;
    Alcotest.test_case "rng: shared with qcheck_lite" `Quick
      test_qcheck_lite_shares_rng;
    Alcotest.test_case "gen: structurally valid packets" `Quick
      test_gen_packet_valid;
    Alcotest.test_case "gen: deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "gen: field boundaries" `Quick test_gen_field_boundaries;
    Alcotest.test_case "gen: checksum byte" `Quick test_gen_checksum_byte;
    Alcotest.test_case "gen: mutants are fresh" `Quick test_gen_mutate;
    Alcotest.test_case "gen: one-byte mutation boundaries" `Quick
      test_gen_mutate_single_byte;
    Alcotest.test_case "gen: one-byte shrink ladder" `Quick
      test_gen_shrink_single_byte;
    Alcotest.test_case "gen: shrink candidates" `Quick
      test_gen_shrink_candidates;
    Alcotest.test_case "ir: pre-order statement ids" `Quick test_numbered_stmts;
    Alcotest.test_case "coverage: comments excluded" `Quick
      test_coverage_points_skip_comments;
    Alcotest.test_case "coverage: execution hits" `Quick test_coverage_execution;
    Alcotest.test_case "coverage: json deterministic" `Quick
      test_coverage_json_deterministic;
    Alcotest.test_case "driver: env replays" `Quick test_driver_env_deterministic;
    Alcotest.test_case "driver: short packet rejected" `Quick
      test_driver_rejects_short;
    Alcotest.test_case "driver: echo sender checksums" `Quick
      test_driver_echo_checksum;
    Alcotest.test_case "driver: deterministic" `Quick test_driver_deterministic;
    Alcotest.test_case "oracle: clean echo run" `Quick test_oracle_clean_on_echo;
    Alcotest.test_case "oracle: never-raise" `Quick test_oracle_never_raise;
    Alcotest.test_case "oracle: checksum" `Quick test_oracle_checksum;
    Alcotest.test_case "oracle: kind names" `Quick test_oracle_kind_names;
    Alcotest.test_case "oracle: observe vs packet view" `Quick
      test_observe_agrees_with_view;
    Alcotest.test_case "engine: deterministic" `Quick test_engine_deterministic;
    Alcotest.test_case "engine: zero findings, all 8 corpora" `Slow
      test_engine_no_findings_all_corpora;
    Alcotest.test_case "engine: icmp coverage >= 80%" `Slow
      test_engine_icmp_coverage_floor;
    Alcotest.test_case "engine: corpus grows" `Quick test_engine_corpus_grows;
    Alcotest.test_case "engine: empty targets rejected" `Quick
      test_engine_empty_targets;
    Alcotest.test_case "engine: metrics counters" `Quick test_engine_metrics;
    Alcotest.test_case "engine: trace events" `Quick test_engine_trace;
    Alcotest.test_case "seeded bug: exactly one finding" `Quick
      test_seeded_bug_one_finding;
    Alcotest.test_case "seeded bug: deterministic" `Quick
      test_seeded_bug_deterministic;
    Alcotest.test_case "seeded bug: tamper targeted" `Quick
      test_seeded_bug_tamper_is_targeted;
    Alcotest.test_case "shrink: keeps oracle violated" `Quick
      test_shrink_keeps_oracle;
    Alcotest.test_case "summary: shape" `Quick test_summary_shape;
  ]
