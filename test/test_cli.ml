(* CLI argument handling, exercised against the real binary: usage
   errors (unknown flags, malformed values, unknown subcommands) must
   exit 2 with usage text on stderr and never a backtrace, and the
   fuzz verb must be deterministic and report through exit codes.
   Exit codes of the --seeded-* fixtures live in test_seeded_matrix. *)

let run_cli = Cli_harness.run_cli
let read_file = Cli_harness.read_file
let contains = Cli_harness.contains

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let expect_usage_error name args =
  let code, _out, err = run_cli args in
  checki (name ^ ": exit 2") 2 code;
  checkb (name ^ ": usage text on stderr") true
    (contains err "Usage" || contains err "usage");
  checkb (name ^ ": no backtrace") false
    (contains err "Raised at" || contains err "Backtrace")

let test_unknown_flag_fuzz () = expect_usage_error "fuzz" "fuzz --definitely-not-a-flag"
let test_unknown_flag_run () = expect_usage_error "run" "run --definitely-not-a-flag"
let test_unknown_flag_analyze () =
  expect_usage_error "analyze" "analyze --definitely-not-a-flag"
let test_unknown_flag_report () =
  expect_usage_error "report" "report --definitely-not-a-flag"

let test_malformed_seed () = expect_usage_error "fuzz seed" "fuzz --seed pancake"
let test_malformed_iters () = expect_usage_error "fuzz iters" "fuzz --iters x2"
let test_malformed_jobs () = expect_usage_error "report jobs" "report --jobs many"
let test_malformed_protocol () =
  expect_usage_error "fuzz protocol" "fuzz -p not-a-protocol"
let test_unknown_subcommand () = expect_usage_error "subcommand" "frobnicate"

(* --rewritten on a protocol the registry holds no rewrite for must not
   fall back to the original text *)
let test_rewritten_without_rewrite () =
  let module Corpora = Sage.Corpora in
  List.iter
    (fun (c : Corpora.t) ->
      if Corpora.lookup c.protocol ~rewritten:true = None then begin
        let args = Printf.sprintf "run -p %s --rewritten" c.name in
        expect_usage_error args args;
        let _, _, err = run_cli args in
        checkb (args ^ ": names the protocols with a rewrite") true
          (contains err "icmp, bfd")
      end)
    Corpora.all

let test_help_exits_zero () =
  let code, out, _err = run_cli "fuzz --help" in
  checki "help exit 0" 0 code;
  checkb "help describes the verb" true (contains out "fuzz")

let test_fuzz_deterministic_across_jobs () =
  let c1, out1, _ = run_cli "fuzz --seed 42 --iters 300" in
  let c2, out2, _ = run_cli "fuzz --seed 42 --iters 300 --jobs 4" in
  checki "both exit 0 (a)" 0 c1;
  checki "both exit 0 (b)" 0 c2;
  Alcotest.check Alcotest.string "byte-identical across --jobs" out1 out2

(* ---- chaos verb ---- *)

let test_unknown_flag_chaos () =
  expect_usage_error "chaos" "chaos --definitely-not-a-flag"

let test_chaos_malformed_seed () =
  expect_usage_error "chaos seed" "chaos --seed pancake"

let test_chaos_negative_soak () =
  expect_usage_error "chaos soak" "chaos --soak -5"

let test_chaos_unknown_scenario () =
  expect_usage_error "chaos scenario" "chaos --scenario warp"

let test_chaos_unknown_corpus () =
  expect_usage_error "chaos corpus" "chaos --corpus nope"

let test_chaos_bad_schedule () =
  (* a schedule without a final heal must be rejected at parse time *)
  expect_usage_error "chaos schedule" "chaos --schedule partition:10"

let test_chaos_scenario_and_schedule_conflict () =
  expect_usage_error "chaos conflict"
    "chaos --scenario flaky --schedule heal:5"

let test_chaos_deterministic_across_jobs () =
  let c1, out1, _ = run_cli "chaos --seed 7 --corpus icmp" in
  let c2, out2, _ = run_cli "chaos --seed 7 --corpus icmp --jobs 4" in
  checki "both exit 0 (a)" 0 c1;
  checki "both exit 0 (b)" 0 c2;
  Alcotest.check Alcotest.string "byte-identical across --jobs" out1 out2

(* ---- --backend flag ---- *)

let test_bad_backend_fuzz () =
  expect_usage_error "fuzz backend" "fuzz --backend turbo"

let test_bad_backend_interop () =
  expect_usage_error "interop backend" "interop --backend turbo"

let test_bad_backend_chaos () =
  expect_usage_error "chaos backend" "chaos --backend turbo"

let test_fuzz_compiled_deterministic () =
  (* the compiled backend must be as reproducible as the interpreter:
     same seed, same findings, byte-identical summaries across repeated
     runs and across --jobs *)
  let c1, out1, _ = run_cli "fuzz --seed 42 --iters 300 --backend compiled" in
  let c2, out2, _ = run_cli "fuzz --seed 42 --iters 300 --backend compiled" in
  let c3, out3, _ =
    run_cli "fuzz --seed 42 --iters 300 --backend compiled --jobs 4"
  in
  checki "exit 0 (a)" 0 c1;
  checki "exit 0 (b)" 0 c2;
  checki "exit 0 (jobs)" 0 c3;
  checkb "zero findings" true (contains out1 "findings   : 0");
  Alcotest.check Alcotest.string "byte-identical across runs" out1 out2;
  Alcotest.check Alcotest.string "byte-identical across --jobs" out1 out3

let test_interop_accepts_backend () =
  (* rewritten corpus: the disambiguated spec is the one that passes
     the paper's interop experiment; the flag must compose with it *)
  let code, out, _err = run_cli "interop --rewritten --backend compiled" in
  checki "interop compiled exits 0" 0 code;
  checkb "ping succeeded" true (contains out "ping 192.168.2.10: ok");
  checkb "traceroute reached" true (contains out "reached")

let test_chaos_accepts_backend () =
  let code, out, _err =
    run_cli "chaos --seed 7 --corpus icmp --backend compiled"
  in
  checki "chaos compiled exits 0" 0 code;
  checkb "no failures" true (contains out "failed: 0")

let test_fuzz_coverage_out () =
  let file = Filename.temp_file "sage_cov" ".json" in
  let code, _out, _err =
    run_cli (Printf.sprintf "fuzz --seed 42 --iters 150 --coverage-out %s" file)
  in
  checki "exit 0" 0 code;
  let json = read_file file in
  Sys.remove file;
  checkb "coverage json has functions" true (contains json "\"functions\"");
  checkb "coverage json has totals" true (contains json "\"points\"")

(* ---- analyze verb: proofs, fixtures, policies, determinism ---- *)

let test_malformed_fail_on () =
  expect_usage_error "analyze fail-on" "analyze --fail-on never-ever";
  expect_usage_error "run fail-on" "run --fail-on never-ever";
  expect_usage_error "report fail-on" "report --fail-on never-ever"

let test_analyze_prove_clean () =
  let code, _out, err = run_cli "analyze -p icmp --prove" in
  checki "proved corpus exits 0" 0 code;
  checkb "proof summary on stderr" true
    (contains err "functions proved in-bounds");
  checkb "everything proved" false (contains err "unproved:")

let test_analyze_fail_on_policies () =
  (* icmp carries warnings but no errors: the two policies must land on
     opposite exit codes over the same findings *)
  let lax, _, _ = run_cli "analyze -p icmp --fail-on error" in
  let strict, _, _ = run_cli "analyze -p icmp --fail-on warning" in
  checki "--fail-on error exits 0" 0 lax;
  checki "--fail-on warning exits 1" 1 strict

let test_analyze_json_deterministic () =
  let c1, out1, _ = run_cli "analyze -p bgp --format json" in
  let c2, out2, _ = run_cli "analyze -p bgp --format json --jobs 4" in
  checki "exit 0 (a)" 0 c1;
  checki "exit 0 (b)" 0 c2;
  checkb "json findings" true (contains out1 "\"code\"");
  Alcotest.check Alcotest.string "byte-identical across --jobs" out1 out2

let test_fuzz_check_proofs () =
  let code, out, _err = run_cli "fuzz --seed 42 --iters 200 --check-proofs" in
  checki "proof cross-check exits 0" 0 code;
  checkb "proof set reported" true (contains out "SA007-proved");
  checkb "cross-check passed" true (contains out "proof-check: ok")

let suite =
  [
    Alcotest.test_case "unknown flag: fuzz" `Quick test_unknown_flag_fuzz;
    Alcotest.test_case "unknown flag: run" `Quick test_unknown_flag_run;
    Alcotest.test_case "unknown flag: analyze" `Quick test_unknown_flag_analyze;
    Alcotest.test_case "unknown flag: report" `Quick test_unknown_flag_report;
    Alcotest.test_case "malformed --seed" `Quick test_malformed_seed;
    Alcotest.test_case "malformed --iters" `Quick test_malformed_iters;
    Alcotest.test_case "malformed --jobs" `Quick test_malformed_jobs;
    Alcotest.test_case "malformed --protocol" `Quick test_malformed_protocol;
    Alcotest.test_case "unknown subcommand" `Quick test_unknown_subcommand;
    Alcotest.test_case "--help exits 0" `Quick test_help_exits_zero;
    Alcotest.test_case "fuzz: identical across --jobs" `Slow
      test_fuzz_deterministic_across_jobs;
    Alcotest.test_case "fuzz: --coverage-out json" `Slow test_fuzz_coverage_out;
    Alcotest.test_case "malformed --backend: fuzz" `Quick test_bad_backend_fuzz;
    Alcotest.test_case "malformed --backend: interop" `Quick
      test_bad_backend_interop;
    Alcotest.test_case "malformed --backend: chaos" `Quick
      test_bad_backend_chaos;
    Alcotest.test_case "fuzz: compiled backend reproducible" `Slow
      test_fuzz_compiled_deterministic;
    Alcotest.test_case "interop: accepts --backend compiled" `Slow
      test_interop_accepts_backend;
    Alcotest.test_case "chaos: accepts --backend compiled" `Slow
      test_chaos_accepts_backend;
    Alcotest.test_case "unknown flag: chaos" `Quick test_unknown_flag_chaos;
    Alcotest.test_case "chaos: malformed --seed" `Quick test_chaos_malformed_seed;
    Alcotest.test_case "chaos: negative --soak" `Quick test_chaos_negative_soak;
    Alcotest.test_case "chaos: unknown --scenario" `Quick
      test_chaos_unknown_scenario;
    Alcotest.test_case "chaos: unknown --corpus" `Quick test_chaos_unknown_corpus;
    Alcotest.test_case "chaos: schedule missing heal" `Quick
      test_chaos_bad_schedule;
    Alcotest.test_case "chaos: --scenario conflicts with --schedule" `Quick
      test_chaos_scenario_and_schedule_conflict;
    Alcotest.test_case "chaos: identical across --jobs" `Slow
      test_chaos_deterministic_across_jobs;
    Alcotest.test_case "malformed --fail-on" `Quick test_malformed_fail_on;
    Alcotest.test_case "analyze: --prove clean corpus exits 0" `Slow
      test_analyze_prove_clean;
    Alcotest.test_case "analyze: --fail-on policies" `Slow
      test_analyze_fail_on_policies;
    Alcotest.test_case "analyze: json identical across --jobs" `Slow
      test_analyze_json_deterministic;
    Alcotest.test_case "fuzz: --check-proofs passes" `Slow
      test_fuzz_check_proofs;
    Alcotest.test_case "--rewritten without a rewrite" `Quick
      test_rewritten_without_rewrite;
  ]
