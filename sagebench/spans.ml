(* Layer spans on the Sage_trace wall-clock sink.  The benchmark opens
   a span around each call it makes into a layer's public functions;
   the span's Begin event carries the op id, its End event the duration
   in nanoseconds (monotonic clock) and the words allocated inside it.
   Spans stay in the tracer's memory and are analysed, or rendered for
   Perfetto, after the measurement. *)

module Trace = Sage_trace.Trace

type recorder = { trace : Trace.t; mutable op : int }

let recorder () = { trace = Trace.create ~clock:Trace.Wall (); op = 0 }
let set_op (r : recorder) op = r.op <- op

let span rec_ name f =
  match rec_ with
  | None -> f ()
  | Some r ->
    let tr = Some r.trace in
    let sp = Trace.span ~cat:"bench" ~args:[ ("op", Trace.Int r.op) ] tr name in
    let w0 = Clock.words () in
    let t0 = Clock.now_ns () in
    let close () =
      let t1 = Clock.now_ns () in
      let w1 = Clock.words () in
      Trace.close
        ~args:[ ("ns", Trace.Int (t1 - t0)); ("words", Trace.Int (w1 - w0)) ]
        tr sp
    in
    (match f () with
     | v ->
       close ();
       v
     | exception exn ->
       close ();
       raise exn)

(* One closed span.  [own] spans were recorded by the benchmark and
   carry exact duration and words; the others are the program's own
   spans (passed through its public [?trace] arguments), timed by the
   tracer's clock, with no word count. *)
type node = {
  name : string;
  op : int;
  own : bool;
  ns : int;
  words : int;
  self_ns : int;
  self_words : int;
  parent : string option;
}

type frame = {
  f_id : int;
  f_name : string;
  f_op : int;
  f_ts : int64;
  f_parent : string option;
  mutable child_ns : int;
  mutable child_words : int;
}

let int_arg key args =
  match List.assoc_opt key args with Some (Trace.Int v) -> Some v | _ -> None

(* Rebuild the span tree from the event stream (one stack per worker)
   and compute self times: a span's duration minus its children's. *)
let nodes (events : Trace.event list) =
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 4 in
  let out = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
      match e.ph with
      | Trace.Begin ->
        let parent, inherited_op =
          match stack with
          | [] -> (None, 0)
          | top :: _ -> (Some top.f_name, top.f_op)
        in
        let op = Option.value ~default:inherited_op (int_arg "op" e.args) in
        Hashtbl.replace stacks e.tid
          ({ f_id = e.span_id; f_name = e.name; f_op = op; f_ts = e.ts;
             f_parent = parent; child_ns = 0; child_words = 0 }
          :: stack)
      | Trace.End -> (
        match stack with
        | top :: rest when top.f_id = e.span_id ->
          Hashtbl.replace stacks e.tid rest;
          let own, ns, words =
            match (int_arg "ns" e.args, int_arg "words" e.args) with
            | Some ns, Some w -> (true, ns, w)
            | _ -> (false, Int64.to_int (Int64.sub e.ts top.f_ts), 0)
          in
          (* a program span is transparent for word accounting: the
             words of own spans below it count against the own span
             above it *)
          let self_words = if own then words - top.child_words else 0 in
          let words_up = if own then words else top.child_words in
          (match rest with
           | parent :: _ ->
             parent.child_ns <- parent.child_ns + ns;
             parent.child_words <- parent.child_words + words_up
           | [] -> ());
          out :=
            { name = top.f_name; op = top.f_op; own; ns; words;
              self_ns = ns - top.child_ns; self_words; parent = top.f_parent }
            :: !out
        | _ -> invalid_arg ("Spans.nodes: unbalanced End for " ^ e.name))
      | Trace.Instant | Trace.Counter -> ())
    events;
  List.rev !out

(* ---- aggregation across batches ---- *)

type series = {
  mutable ns : float list;
  mutable self_ns : float list;
  mutable words : float list;
  mutable count : int;
}

type agg = (string, series) Hashtbl.t

let agg () : agg = Hashtbl.create 32

let series (a : agg) name =
  match Hashtbl.find_opt a name with
  | Some s -> s
  | None ->
    let s = { ns = []; self_ns = []; words = []; count = 0 } in
    Hashtbl.replace a name s;
    s

let add (a : agg) (n : node) =
  let s = series a n.name in
  s.ns <- float_of_int n.ns :: s.ns;
  s.self_ns <- float_of_int n.self_ns :: s.self_ns;
  if n.own then s.words <- float_of_int n.words :: s.words;
  s.count <- s.count + 1

let samples l = Array.of_list l
let count a name = match Hashtbl.find_opt a name with Some s -> s.count | None -> 0

let ns a name = match Hashtbl.find_opt a name with Some s -> samples s.ns | None -> [||]

let words a name =
  match Hashtbl.find_opt a name with Some s -> samples s.words | None -> [||]

let total_ns a name = Array.fold_left ( +. ) 0. (ns a name)

(* Median duration of a span name in the given unit ([1e3] for us). *)
let median_in a name ~per =
  match ns a name with [||] -> 0. | s -> Stats.median s /. per

let percentile_in a name ~permille ~per =
  match ns a name with
  | [||] -> 0.
  | s -> Stats.percentile_sorted (Stats.sorted s) permille /. per

let mean_words a name = Stats.mean (words a name)

let max_words a name =
  match words a name with [||] -> 0. | s -> Stats.max_of s
