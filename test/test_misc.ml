(* Coverage for the remaining surfaces: the report module, semantic
   composition, pcap file round-trips, dictionary integrity, and
   tokenizer/chunker invariants. *)

module P = Sage.Pipeline
module Report = Sage.Report
module Sem = Sage_ccg.Sem
module Cat = Sage_ccg.Category
module Lf = Sage_logic.Lf
module Dict = Sage_nlp.Term_dictionary
module Tok = Sage_nlp.Tokenizer
module Chunker = Sage_nlp.Chunker
module Pcap = Sage_net.Pcap
module Bu = Sage_net.Bytes_util

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---- report ---- *)

let icmp_orig = lazy (Corpus_runs.run_of (Corpus_runs.corpus "icmp"))
let icmp_rewr = lazy (Corpus_runs.run_of (Corpus_runs.corpus "icmp-rw"))

let contains = Astring_contains.contains

let test_report_summary () =
  let s = Report.summary (Lazy.force icmp_orig) in
  check Alcotest.bool "mentions ambiguity" true (contains s "3 remain ambiguous");
  check Alcotest.bool "mentions zero-LF" true (contains s "1 yield no logical form");
  check Alcotest.bool "mentions functions" true (contains s "11 functions generated")

let test_report_worklist () =
  let w = Report.rewrite_worklist (Lazy.force icmp_orig) in
  check Alcotest.bool "lists the formation sentence" true
    (contains w "To form an echo reply message");
  check Alcotest.bool "lists the gateway sentence" true
    (contains w "Address of the gateway");
  check Alcotest.string "clean spec has empty worklist" ""
    (Report.rewrite_worklist (Lazy.force icmp_rewr))

let test_report_markdown () =
  let md = Report.markdown (Lazy.force icmp_rewr) in
  check Alcotest.bool "has title" true (contains md "# SAGE run report");
  check Alcotest.bool "has functions section" true
    (contains md "`icmp_echo_reply_receiver` (receiver");
  check Alcotest.bool "has struct blocks" true
    (contains md "struct echo_or_echo_reply_message")

(* ---- semantic composition (parser combinators) ---- *)

let test_sem_composition () =
  (* (S\NP)/(S\NP) composed with (S\NP)/NP behaves like the curried
     composition λx. f (g x) *)
  let f = Sem.lam "p" (Sem.lam "x" (Sem.pred Lf.p_may [ Sem.app (Sem.var "p") (Sem.var "x") ])) in
  let g = Sem.lam2 "o" "s" (Sem.pred Lf.p_is [ Sem.var "s"; Sem.var "o" ]) in
  let composed = Sem.lam "z" (Sem.app f (Sem.app g (Sem.var "z"))) in
  let applied =
    Sem.beta_reduce
      (Sem.app (Sem.app composed (Sem.num 0)) (Sem.term "checksum"))
  in
  match Sem.to_lf applied with
  | Some lf ->
    check Alcotest.string "composed semantics" "@May(@Is('checksum', 0))"
      (Lf.to_string lf)
  | None -> Alcotest.fail "not ground"

let test_sem_free_vars () =
  let t = Sem.lam "x" (Sem.app (Sem.var "x") (Sem.var "y")) in
  check Alcotest.(list string) "free vars" [ "y" ] (Sem.free_vars t)

let test_category_equal_compare_consistent () =
  let cats =
    List.map
      (fun s -> Result.get_ok (Cat.of_string s))
      [ "NP"; "S"; "(S\\NP)/NP"; "PP/NP"; "S/S" ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check Alcotest.bool "equal iff compare = 0" (Cat.equal a b)
            (Cat.compare a b = 0))
        cats)
    cats

(* ---- pcap file IO ---- *)

let test_pcap_file_roundtrip () =
  let cap = Pcap.create () in
  let d = Bytes.of_string "\x45\x00\x00\x14................." in
  Pcap.add_packet cap d;
  let path = Filename.temp_file "sage_test" ".pcap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Pcap.write_file cap path;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      match Pcap.of_bytes (Bytes.of_string contents) with
      | Ok [ r ] -> check Alcotest.bytes "record" d r.Pcap.data
      | Ok rs -> Alcotest.failf "%d records" (List.length rs)
      | Error e -> Alcotest.fail e)

let test_bytes_util_bounds () =
  let b = Bytes.make 4 '\000' in
  Alcotest.check_raises "get_u32 out of range"
    (Invalid_argument
       "Bytes_util.get_u32: offset 1 width 4 out of bounds (length 4)")
    (fun () -> ignore (Bu.get_u32 b 1))

(* ---- dictionary integrity ---- *)

let test_dictionary_consistency () =
  let dict = Dict.base () in
  (* every phrase the specs extend with must still be matchable *)
  List.iter
    (fun ext ->
      let d = Dict.extend dict ext in
      List.iter
        (fun phrase ->
          check Alcotest.bool phrase true (Dict.mem d phrase))
        ext)
    [
      Sage_corpus.Icmp_rfc.dictionary_extension;
      Sage_corpus.Igmp_rfc.dictionary_extension;
      Sage_corpus.Ntp_rfc.dictionary_extension;
      Sage_corpus.Bfd_rfc.dictionary_extension;
      Sage_corpus.Tcp_rfc.dictionary_extension;
      Sage_corpus.Bgp_rfc.dictionary_extension;
    ]

let test_static_context_no_shadowing_surprises () =
  (* the first binding wins in an assoc list: assert the load-bearing
     entries resolve to what the code generator expects *)
  let ctx = Sage_codegen.Context.dynamic ~protocol:"ICMP" ~message:"m" () in
  List.iter
    (fun (term, expected) ->
      match Sage_codegen.Context.resolve ctx term with
      | Some r ->
        check Alcotest.string term expected
          (Fmt.str "%a" Sage_codegen.Context.pp_resolution r)
      | None -> Alcotest.failf "%s does not resolve" term)
    [
      ("source address", "ip field src");
      ("one's complement sum", "framework fn ones_complement_sum");
      ("original datagram's data", "env param original_datagram_data");
      ("bfd.SessionState", "state var bfd.SessionState");
      ("peer.timer", "state var peer.timer");
      ("state", "state var bgp.State");
    ]

(* ---- tokenizer / chunker invariants ---- *)

let sentence_gen =
  QCheck.Gen.(
    map (String.concat " ")
      (list_size (int_range 1 12)
         (oneofl
            [ "the"; "checksum"; "is"; "zero"; "echo"; "reply"; "message";
              "if"; "code"; "="; "0"; ","; "identifier"; "may"; "be";
              "source"; "address"; "of"; "and"; "16-bit"; "one's" ])))

let arbitrary_sentence = QCheck.make ~print:(fun s -> s) sentence_gen

let prop_chunker_preserves_words =
  QCheck.Test.make ~name:"chunking preserves the word sequence" ~count:200
    arbitrary_sentence (fun s ->
      let dict = Dict.base () in
      let chunks = Chunker.chunk_sentence ~dict s in
      let chunk_words =
        List.concat_map
          (fun (c : Chunker.chunk) ->
            List.filter_map
              (fun t ->
                if Sage_nlp.Token.is_word t || Sage_nlp.Token.is_number t then
                  Some (Sage_nlp.Token.lower t)
                else None)
              c.Chunker.tokens)
          chunks
      in
      chunk_words = Tok.words s)

let prop_tokenizer_offsets_monotone =
  QCheck.Test.make ~name:"token offsets strictly increase" ~count:200
    arbitrary_sentence (fun s ->
      let toks = Tok.tokenize s in
      let rec mono = function
        | a :: (b :: _ as rest) ->
          a.Sage_nlp.Token.start < b.Sage_nlp.Token.start && mono rest
        | _ -> true
      in
      mono toks)

let prop_sentences_cover_words =
  QCheck.Test.make ~name:"sentence splitting loses no words" ~count:200
    arbitrary_sentence (fun s ->
      let direct = Tok.words s in
      let via_sentences = List.concat_map Tok.words (Tok.sentences s) in
      direct = via_sentences)

(* ---- qcheck_lite failure reporting ---- *)

(* A deliberately failing property: the harness must surface the seed,
   the shrunk counterexample, the shrink-step count and a one-line
   --seed repro hint — the whole debugging loop in one message. *)
let test_qcheck_failure_report () =
  match
    Qcheck_lite.find_failure ~count:50 ~seed:2024 Qcheck_lite.small_nat
      (fun n -> n < 50)
  with
  | None -> Alcotest.fail "n < 50 over [0,100] should falsify"
  | Some f ->
    check Alcotest.int "seed recorded" 2024 f.Qcheck_lite.seed;
    check Alcotest.int "count recorded" 50 f.Qcheck_lite.case_count;
    check Alcotest.string "shrunk to the boundary" "50"
      f.Qcheck_lite.counterexample;
    let msg = Qcheck_lite.failure_message "n < 50" f in
    check Alcotest.bool "names the property" true
      (contains msg "\"n < 50\" falsified");
    check Alcotest.bool "shows the counterexample" true
      (contains msg "counterexample: 50");
    check Alcotest.bool "shows the shrink-step count" true
      (contains msg "shrink steps:");
    check Alcotest.bool "one-line repro hint" true
      (contains msg "--seed 2024")

let test_qcheck_passing_property_silent () =
  check Alcotest.bool "no failure for a tautology" true
    (Qcheck_lite.find_failure ~count:50 Qcheck_lite.small_nat (fun n ->
         n >= 0)
     = None)

let suite =
  [
    tc "report summary" test_report_summary;
    tc "qcheck_lite failure report" test_qcheck_failure_report;
    tc "qcheck_lite passing property" test_qcheck_passing_property_silent;
    tc "report rewrite worklist" test_report_worklist;
    tc "report markdown" test_report_markdown;
    tc "semantic composition" test_sem_composition;
    tc "free variables" test_sem_free_vars;
    tc "category equal/compare" test_category_equal_compare_consistent;
    tc "pcap file roundtrip" test_pcap_file_roundtrip;
    tc "bytes_util bounds" test_bytes_util_bounds;
    tc "dictionary extensions matchable" test_dictionary_consistency;
    tc "static context load-bearing entries" test_static_context_no_shadowing_surprises;
    QCheck_alcotest.to_alcotest prop_chunker_preserves_words;
    QCheck_alcotest.to_alcotest prop_tokenizer_offsets_monotone;
    QCheck_alcotest.to_alcotest prop_sentences_cover_words;
  ]
