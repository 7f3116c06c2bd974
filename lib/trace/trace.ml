(* In-memory structured tracer.  All mutation happens under one
   backend mutex, so emission from Pool workers is safe; on the
   sequential backend the lock is free.  Everything is buffered — no
   I/O happens until a sink renders the buffer — so tracing cannot
   perturb pipeline output ordering. *)

type arg =
  | Int of int
  | Str of string
  | Float of float
  | Bool of bool

type phase =
  | Begin
  | End
  | Instant
  | Counter

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts : int64;
  tid : int;
  span_id : int;
  args : (string * arg) list;
}

type clock =
  | Wall
  | Logical

type t = {
  clock : clock;
  start_ns : int64;
  lock : Sage_sched.Sched_backend.mutex;
  mutable rev_events : event list;
  mutable count : int;
  mutable next_span : int;
  mutable ticks : int64;
}

let create ?(clock = Wall) () =
  {
    clock;
    start_ns = Sage_sched.Metrics.now_ns ();
    lock = Sage_sched.Sched_backend.mutex ();
    rev_events = [];
    count = 0;
    next_span = 0;
    ticks = 0L;
  }

let clock t = t.clock

(* Must be called under [t.lock]. *)
let stamp t =
  match t.clock with
  | Wall -> Int64.sub (Sage_sched.Metrics.now_ns ()) t.start_ns
  | Logical ->
    t.ticks <- Int64.add t.ticks 1L;
    t.ticks

let push t ~name ~cat ~ph ~span_id ~args =
  Sage_sched.Sched_backend.with_lock t.lock (fun () ->
      let ev =
        {
          name;
          cat;
          ph;
          ts = stamp t;
          tid = Sage_sched.Sched_backend.self_id ();
          span_id;
          args;
        }
      in
      t.rev_events <- ev :: t.rev_events;
      t.count <- t.count + 1)

type span =
  | No_span
  | Open of { id : int; name : string; cat : string }

let null_span = No_span

let span ?(cat = "") ?(args = []) trace name =
  match trace with
  | None -> No_span
  | Some t ->
    let id =
      Sage_sched.Sched_backend.with_lock t.lock (fun () ->
          t.next_span <- t.next_span + 1;
          t.next_span)
    in
    push t ~name ~cat ~ph:Begin ~span_id:id ~args;
    Open { id; name; cat }

let close ?(args = []) trace sp =
  match (trace, sp) with
  | Some t, Open { id; name; cat } ->
    push t ~name ~cat ~ph:End ~span_id:id ~args
  | _ -> ()

let with_span ?cat ?args trace name f =
  match trace with
  | None -> f ()
  | Some _ ->
    let sp = span ?cat ?args trace name in
    (match f () with
    | v ->
      close trace sp;
      v
    | exception exn ->
      close trace sp;
      raise exn)

let instant ?(cat = "") ?(args = []) trace name =
  match trace with
  | None -> ()
  | Some t -> push t ~name ~cat ~ph:Instant ~span_id:0 ~args

let counter ?(cat = "") trace name value =
  match trace with
  | None -> ()
  | Some t ->
    push t ~name ~cat ~ph:Counter ~span_id:0 ~args:[ ("value", Int value) ]

let events t =
  Sage_sched.Sched_backend.with_lock t.lock (fun () -> List.rev t.rev_events)

let event_count t =
  Sage_sched.Sched_backend.with_lock t.lock (fun () -> t.count)

(* --- rendering ------------------------------------------------------ *)

let arg_to_json = function
  | Int i -> string_of_int i
  | Str s -> Sage_json.Json.string s
  | Float f -> Printf.sprintf "%.6g" f
  | Bool b -> if b then "true" else "false"

let args_to_json args =
  String.concat ","
    (List.map
       (fun (k, v) -> Sage_json.Json.string k ^ ":" ^ arg_to_json v)
       args)

let ph_char = function
  | Begin -> 'B'
  | End -> 'E'
  | Instant -> 'i'
  | Counter -> 'C'

(* Chrome expects microseconds.  The Wall clock records ns, so divide,
   keeping three decimals to preserve sub-microsecond ordering; the
   Logical clock's ticks are emitted verbatim (they are already a
   strictly increasing integer sequence). *)
let ts_to_json clock ts =
  match clock with
  | Logical -> Int64.to_string ts
  | Wall ->
    Printf.sprintf "%Ld.%03Ld" (Int64.div ts 1000L)
      (Int64.rem ts 1000L)

let event_to_json clock ev =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"name\":";
  Sage_json.Json.add_string buf ev.name;
  Buffer.add_string buf ",\"cat\":";
  Sage_json.Json.add_string buf (if ev.cat = "" then "sage" else ev.cat);
  Buffer.add_string buf
    (Printf.sprintf ",\"ph\":\"%c\",\"ts\":%s,\"pid\":1,\"tid\":%d"
       (ph_char ev.ph) (ts_to_json clock ev.ts) ev.tid);
  (match ev.ph with
  | Instant -> Buffer.add_string buf ",\"s\":\"t\""
  | _ -> ());
  (match ev.args with
  | [] -> ()
  | args -> Buffer.add_string buf (Printf.sprintf ",\"args\":{%s}" (args_to_json args)));
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_chrome_json t =
  let evs = events t in
  let buf = Buffer.create (4096 + (128 * List.length evs)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (event_to_json t.clock ev))
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let arg_to_text = function
  | Int i -> string_of_int i
  | Str s -> s
  | Float f -> Printf.sprintf "%.6g" f
  | Bool b -> string_of_bool b

let event_to_text ev =
  let args =
    match ev.args with
    | [] -> ""
    | args ->
      " "
      ^ String.concat " "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (arg_to_text v)) args)
  in
  Printf.sprintf "%12Ld tid=%d %c %s%s%s" ev.ts ev.tid (ph_char ev.ph)
    (if ev.cat = "" then "" else ev.cat ^ ":")
    ev.name args

let to_text t =
  let evs = events t in
  String.concat "" (List.map (fun ev -> event_to_text ev ^ "\n") evs)

type format =
  | Json
  | Text

let format_of_string = function
  | "json" -> Some Json
  | "text" -> Some Text
  | _ -> None

let render fmt t =
  match fmt with Json -> to_chrome_json t | Text -> to_text t

let summary t =
  let evs = events t in
  let spans = List.length (List.filter (fun e -> e.ph = Begin) evs) in
  let tids = List.sort_uniq compare (List.map (fun e -> e.tid) evs) in
  Printf.sprintf "%d events (%d spans, %d worker%s)" (List.length evs) spans
    (List.length tids)
    (if List.length tids = 1 then "" else "s")
