(* The execution backends (lib/backend): the compiled closure backend
   must be observationally identical to the tree-walk interpreter on
   every corpus — same outcomes, same rejects, same coverage, same
   trace events — and the seeded-divergence fixture must prove the
   backend-agreement oracle can localize a real mis-compile. *)

module Rng = Sage_fuzz.Rng
module Gen = Sage_fuzz.Gen
module Driver = Sage_fuzz.Driver
module Oracle = Sage_fuzz.Oracle
module Engine = Sage_fuzz.Engine
module Backend = Sage_backend.Backend
module L = Sage_backend.Layout
module Divergence = Sage_backend.Seeded_divergence
module Coverage = Sage_interp.Coverage
module Pv = Sage_interp.Packet_view
module Ir = Sage_codegen.Ir
module Hd = Sage_rfc.Header_diagram
module Trace = Sage_trace.Trace
module P = Sage.Pipeline
module C = Corpus_runs
module Corpora = Sage.Corpora
module Q = Qcheck_lite

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let run_of name = C.run_of (C.corpus name)

let targets_of (run : P.run) =
  List.filter_map
    (fun (f : Ir.func) ->
      Option.map
        (fun sd -> (f, sd))
        (List.assoc_opt f.Ir.fn_name run.P.codegen.P.struct_of_function))
    run.P.codegen.P.functions

let layout_of run fn = List.assoc fn run.P.codegen.P.struct_of_function

let func_of (run : P.run) fn =
  List.find (fun f -> f.Ir.fn_name = fn) run.P.codegen.P.functions

let all_corpora = List.map (fun c -> c.Corpora.name) Corpora.all

(* ---- backend selection ---- *)

let test_choices () =
  checkb "interp parses" true
    (Backend.choice_of_string "interp" = Some Backend.Interp);
  checkb "compiled parses" true
    (Backend.choice_of_string "compiled" = Some Backend.Compiled);
  checkb "unknown rejected" true (Backend.choice_of_string "jit" = None);
  List.iter
    (fun c ->
      checkb "name round-trips" true
        (Backend.choice_of_string (Backend.choice_name c) = Some c);
      checkb "other is the other one" true (Backend.other c <> c))
    Backend.all_choices

(* ---- compiled layouts vs the interpreter's packet view ---- *)

(* Decode a generated packet through both representations: every slot
   must agree with [Pv.get], and re-packing the slots must reproduce
   [Pv.serialize] byte for byte. *)
let layout_parity name () =
  let run = run_of name in
  List.iter
    (fun ((f : Ir.func), layout) ->
      let cl = L.of_layout layout in
      let rng = Rng.of_seed 77 in
      for i = 1 to 20 do
        let packet = Gen.packet rng layout in
        match Pv.deserialize layout packet with
        | Error e -> Alcotest.failf "%s: deserialize: %s" f.Ir.fn_name e
        | Ok view ->
          let slots = Array.make (max 1 cl.L.nslots) 0L in
          L.read cl packet slots;
          List.iter
            (fun (hf : Hd.field) ->
              if not hf.Hd.variable then begin
                let slot = Hashtbl.find cl.L.index (Hd.c_identifier hf.Hd.name) in
                match Pv.get view hf.Hd.name with
                | Ok v ->
                  check Alcotest.int64
                    (Printf.sprintf "%s.%s #%d" f.Ir.fn_name hf.Hd.name i)
                    v slots.(slot)
                | Error e -> Alcotest.failf "Pv.get %s: %s" hf.Hd.name e
              end)
            layout.Hd.fields;
          check Alcotest.bytes
            (Printf.sprintf "%s repack #%d" f.Ir.fn_name i)
            (Pv.serialize view)
            (L.pack cl slots ~data:(Pv.get_data view))
      done)
    (targets_of run)

(* ---- interp-vs-compiled agreement, every function, every corpus ---- *)

let load_both ?divergence layout f =
  ( Backend.load ?divergence Backend.Interp ~layout f,
    Backend.load ?divergence Backend.Compiled ~layout f )

let agree ~what li lc ~env packet =
  match (Driver.exec ~env li packet, Driver.exec ~env lc packet) with
  | Ok a, Ok b -> (
    match Backend.diff a b with
    | None -> ()
    | Some d -> Alcotest.failf "%s: %s" what d)
  | Error a, Error b -> check Alcotest.string (what ^ " reject") a b
  | Ok _, Error e -> Alcotest.failf "%s: only compiled rejected: %s" what e
  | Error e, Ok _ -> Alcotest.failf "%s: only interp rejected: %s" what e

let exec_parity name () =
  let run = run_of name in
  List.iter
    (fun ((f : Ir.func), layout) ->
      let li, lc = load_both layout f in
      let rng = Rng.of_seed 101 in
      for i = 1 to 30 do
        let packet = Gen.packet rng layout in
        let env = Driver.env_of rng in
        agree ~what:(Printf.sprintf "%s #%d" f.Ir.fn_name i) li lc ~env packet
      done;
      (* structural edges: empty, one byte short, all-ones fixed header *)
      let short =
        let n = Pv.fixed_bytes layout in
        if n = 0 then Bytes.empty else Bytes.make (n - 1) '\xff'
      in
      let env = Driver.env_of (Rng.of_seed 5) in
      List.iteri
        (fun i p ->
          agree ~what:(Printf.sprintf "%s edge %d" f.Ir.fn_name i) li lc ~env p)
        [ Bytes.empty; short; Bytes.make (Pv.fixed_bytes layout) '\xff' ])
    (targets_of run)

(* ---- coverage parity ---- *)

(* Identical seeds must leave identical coverage — same points, same
   hit counters — regardless of backend; the JSON artifact is the
   strictest deterministic encoding of that. *)
let coverage_parity name () =
  let run = run_of name in
  let targets = targets_of run in
  let funcs = List.map fst targets in
  let cov_for backend =
    let cov = Coverage.create () in
    List.iter
      (fun (f, layout) ->
        let l = Backend.load backend ~layout f in
        let rng = Rng.of_seed 55 in
        for _ = 1 to 15 do
          let packet = Gen.packet rng layout in
          let env = Driver.env_of rng in
          ignore (Driver.exec ~coverage:cov ~env l packet)
        done)
      targets;
    Coverage.to_json cov funcs
  in
  check Alcotest.string "coverage JSON identical"
    (cov_for Backend.Interp)
    (cov_for Backend.Compiled)

(* ---- trace parity ---- *)

let trace_parity name () =
  let run = run_of name in
  let trace_for backend =
    let trace = Trace.create ~clock:Trace.Logical () in
    List.iter
      (fun (f, layout) ->
        let l = Backend.load backend ~layout f in
        let rng = Rng.of_seed 91 in
        for _ = 1 to 10 do
          let packet = Gen.packet rng layout in
          let env = Driver.env_of rng in
          ignore (Driver.exec ~trace ~env l packet)
        done)
      (targets_of run);
    Trace.to_text trace
  in
  check Alcotest.string "trace events identical"
    (trace_for Backend.Interp)
    (trace_for Backend.Compiled)

(* ---- properties ---- *)

let prop_never_raises =
  Q.test ~count:150 "compiled backend never raises on arbitrary bytes"
    (Q.bytes_arb ~max_len:48 ())
    (fun bytes ->
      let run = run_of "icmp" in
      let env = Driver.env_of (Rng.of_seed 3) in
      List.for_all
        (fun (f, layout) ->
          let l = Backend.load Backend.Compiled ~layout f in
          match Driver.exec ~env l bytes with Ok _ | Error _ -> true)
        (targets_of run))

let prop_agree_under_mutation =
  Q.test ~count:60 "backends agree under layout-aware mutation"
    (Q.int_range 0 1_000_000)
    (fun seed ->
      let run = run_of "icmp" in
      List.for_all
        (fun (f, layout) ->
          let li, lc = load_both layout f in
          let rng = Rng.of_seed seed in
          let packet =
            Gen.mutate rng layout (Gen.mutate rng layout (Gen.packet rng layout))
          in
          let env = Driver.env_of rng in
          match (Driver.exec ~env li packet, Driver.exec ~env lc packet) with
          | Ok a, Ok b -> Backend.diff a b = None
          | Error a, Error b -> a = b
          | _ -> false)
        (targets_of run))

(* ---- the engine as a differential harness ---- *)

let engine_differential name () =
  let run = run_of name in
  let res =
    Engine.run ~backend:Backend.Compiled ~seed:42 ~iters:400
      ~protocol:run.P.spec.P.protocol (targets_of run)
  in
  checki "zero findings at the pinned seed" 0 (List.length res.Engine.findings)

(* Byte-identical reports across backends when no oracle fires: the
   compiled loop consumes the PRNG exactly like the interpreter's. *)
let test_engine_summary_stable () =
  let run = run_of "icmp" in
  let targets = targets_of run in
  let report backend =
    Engine.summary
      (Engine.run ~backend ~differential:false ~seed:7 ~iters:300
         ~protocol:"ICMP" targets)
  in
  check Alcotest.string "identical summaries"
    (report Backend.Interp) (report Backend.Compiled)

(* ---- the seeded-divergence fixture ---- *)

let test_divergence_diff () =
  let run = run_of "icmp" in
  let fn = Divergence.default_target in
  let f = func_of run fn and layout = layout_of run fn in
  let li = Backend.load Backend.Interp ~layout f in
  let lc = Backend.load ~divergence:fn Backend.Compiled ~layout f in
  let packet = Bytes.make (Pv.fixed_bytes layout) '\000' in
  let env = Driver.env_of (Rng.of_seed 1) in
  match (Driver.exec ~env li packet, Driver.exec ~env lc packet) with
  | Ok a, Ok b -> (
    match Backend.diff a b with
    | Some d ->
      checkb "names the output" true (contains d "output");
      checkb "labels both sides" true
        (contains d "interp" && contains d "compiled")
    | None -> Alcotest.fail "tampered compile should diverge")
  | _ -> Alcotest.fail "both backends should accept the packet"

let test_divergence_found () =
  let run = run_of "icmp" in
  let res =
    Engine.run ~backend:Backend.Compiled ~divergence:Divergence.default_target
      ~seed:42 ~iters:2000 ~protocol:"ICMP" (targets_of run)
  in
  match res.Engine.findings with
  | [ f ] ->
    check Alcotest.string "localized to the tampered function"
      Divergence.default_target f.Engine.fn;
    check Alcotest.string "reported as backend disagreement"
      "backend-agreement" (Oracle.kind_name f.Engine.kind);
    checkb "shrunk is no larger" true
      (Bytes.length f.Engine.shrunk <= Bytes.length f.Engine.packet);
    checkb "shrinking made progress" true (f.Engine.shrink_steps > 0);
    checkb "detail labels both backends" true
      (contains f.Engine.detail "interp" && contains f.Engine.detail "compiled")
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_divergence_interp_untouched () =
  (* the interpreter ignores the divergence request: a non-differential
     interp run over the tampered load stays clean *)
  let run = run_of "icmp" in
  let res =
    Engine.run ~backend:Backend.Interp ~divergence:Divergence.default_target
      ~seed:42 ~iters:500 ~protocol:"ICMP" (targets_of run)
  in
  checki "no findings" 0 (List.length res.Engine.findings)

let suite =
  List.map
    (fun name ->
      Alcotest.test_case
        (Printf.sprintf "layout parity: %s" name)
        `Quick (layout_parity name))
    all_corpora
  @ List.map
      (fun name ->
        Alcotest.test_case
          (Printf.sprintf "exec parity: %s" name)
          `Quick (exec_parity name))
      all_corpora
  @ List.map
      (fun name ->
        Alcotest.test_case
          (Printf.sprintf "engine differential: %s" name)
          `Quick (engine_differential name))
      all_corpora
  @ [
      Alcotest.test_case "backend choices" `Quick test_choices;
      Alcotest.test_case "coverage parity: icmp" `Quick (coverage_parity "icmp");
      Alcotest.test_case "coverage parity: bfd" `Quick (coverage_parity "bfd");
      Alcotest.test_case "trace parity: icmp" `Quick (trace_parity "icmp");
      Alcotest.test_case "trace parity: tcp" `Quick (trace_parity "tcp");
      prop_never_raises;
      prop_agree_under_mutation;
      Alcotest.test_case "engine summary stable across backends" `Quick
        test_engine_summary_stable;
      Alcotest.test_case "seeded divergence: diff reports it" `Quick
        test_divergence_diff;
      Alcotest.test_case "seeded divergence: engine finds exactly one" `Quick
        test_divergence_found;
      Alcotest.test_case "seeded divergence: interp unaffected" `Quick
        test_divergence_interp_untouched;
    ]
