(* The SAGE benchmark: one command, one process, one thread.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs untraced and prints the end-to-end metrics; --trace 1
   is the separate traced run that prints the per-layer metrics and
   writes its spans to .sagebench/NAME.trace.json.  The last line of
   stdout is the JSON result; the exit code is 1 when any op failed its
   check. *)

open Sagebench

let process_start = Clock.now_ns ()

let workloads =
  [ Bench.W Wl_spec.workload; Bench.W Wl_mutated.workload;
    Bench.W Wl_packet.workload; Bench.W Wl_verify.workload ]

let name_of (Bench.W w) = w.Bench.name

let usage () =
  Printf.sprintf "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1"
    (String.concat "|" (List.map name_of workloads))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME the workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) (usage ());
  match List.find_opt (fun w -> name_of w = !workload) workloads with
  | None ->
    prerr_endline (usage ());
    exit 2
  | Some (Bench.W w) ->
    let outcome =
      match !trace with
      | 0 -> Bench.run_plain w ~seed:!seed ~seconds:!seconds ~process_start
      | 1 ->
        Bench.run_traced w ~seed:!seed ~seconds:!seconds
          ~trace_out:(Filename.concat ".sagebench" (w.Bench.name ^ ".trace.json"))
      | _ ->
        prerr_endline (usage ());
        exit 2
    in
    print_endline (Bench.to_json outcome);
    exit (if outcome.Bench.correct then 0 else 1)
