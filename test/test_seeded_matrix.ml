(* The seeded-fixture exit-code matrix, table-driven against the real
   binary: every --seeded-* fixture must exit 1 (each one is a
   self-test proving its oracle can fire), and every clean corpus must
   exit 0 under the same verbs.  One table instead of per-suite copies
   of the same assertion — the fixture-internals tests (what exactly
   was tampered, how the finding shrinks) stay with their libraries. *)

let run_cli = Cli_harness.run_cli
let contains = Cli_harness.contains

type row = {
  name : string;
  args : string;
  exit_code : int;
  expect : string list;  (** substrings that must appear on stdout *)
}

let seeded_fixtures =
  [
    {
      name = "fuzz --seeded-bug";
      args = "fuzz --seed 42 --iters 300 --seeded-bug";
      exit_code = 1;
      expect = [ "findings   : 1" ];
    };
    {
      name = "fuzz --seeded-divergence";
      args = "fuzz --seed 42 --iters 300 --seeded-divergence";
      exit_code = 1;
      expect = [ "findings   : 1"; "backend-agreement" ];
    };
    {
      name = "fuzz --seeded-violation";
      args = "fuzz -p bfd --seed 42 --iters 300 --seeded-violation";
      exit_code = 1;
      expect =
        [
          "findings   : 1";
          "requirement RQ001";
          (* the finding must carry the source sentence and a shrunk
             witness, per the requirement-oracle contract *)
          "If the version number is not 1, the packet MUST be discarded.";
          "shrunk packet";
        ];
    };
    {
      name = "chaos --seeded-wedge";
      args = "chaos --seed 7 --corpus icmp --seeded-wedge";
      exit_code = 1;
      expect = [ "FAIL"; "crash:1;heal:48" ];
    };
    {
      name = "analyze --seeded-wedge";
      args = "analyze -p bfd --seeded-wedge --prove";
      exit_code = 1;
      expect = [ "SA011"; "wedge" ];
    };
    {
      name = "analyze --seeded-divergence";
      args = "analyze --seeded-divergence --prove";
      exit_code = 1;
      expect = [ "SA012"; "compiles to a different expression" ];
    };
  ]

(* Every corpus, fuzzed clean (the --seeded-* fixtures above are the
   only way these verbs may exit nonzero on shipped corpora).  Small
   iteration counts: the exit-code contract is what's under test; the
   zero-violation soak lives in CI's fuzz job. *)
let clean_corpora =
  List.map
    (fun (c : Sage.Corpora.t) ->
      {
        name = Printf.sprintf "fuzz %s clean" c.name;
        args =
          Printf.sprintf "fuzz -p %s%s --seed 42 --iters 120 --check-reqs"
            (Sage.Corpora.protocol_name c.protocol)
            (if c.rewritten then " --rewritten" else "");
        exit_code = 0;
        expect = [ "findings   : 0" ];
      })
    Sage.Corpora.all
  @ [
      {
        name = "chaos icmp clean";
        args = "chaos --seed 7 --corpus icmp";
        exit_code = 0;
        expect = [ "chaos campaign: seed 7"; "failed: 0" ];
      };
      {
        name = "chaos bfd clean --check-reqs";
        args = "chaos --seed 7 --corpus bfd --check-reqs";
        exit_code = 0;
        expect = [ "failed: 0" ];
      };
    ]

let check_row row () =
  let code, out, err = run_cli row.args in
  Alcotest.(check int)
    (Printf.sprintf "%s: exit %d" row.name row.exit_code)
    row.exit_code code;
  List.iter
    (fun needle ->
      if not (contains out needle) then
        Alcotest.failf "%s: stdout lacks %S\nstdout:\n%s\nstderr:\n%s"
          row.name needle out err)
    row.expect

let suite =
  List.map
    (fun row -> Alcotest.test_case row.name `Slow (check_row row))
    (seeded_fixtures @ clean_corpora)
