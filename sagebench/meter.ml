(* Closed-loop measurement with one caller: op i starts when op i-1 has
   returned.  Only the op itself is inside the timed span; checking its
   output happens outside. *)

(* Latencies live outside the OCaml heap, so the benchmark's own
   buffers do not show in peak_heap_mb however many ops a run makes. *)
type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let buf n : buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

type t = {
  mutable lat : buf;  (* ns per op, first [n] entries *)
  mutable start : buf;  (* clock at each op's start *)
  mutable n : int;
  mutable words : int;  (* allocated inside timed ops *)
  mutable timed_ns : int;
  exact : bool;  (* count all words of each op, not just minor *)
  mutable exact_words : float;
  mutable failed : int;
  mutable failures : string list;  (* the first few, for stderr *)
  calib : Calib.t option;  (* samples the host's speed between ops *)
}

(* An [exact] meter forces a minor collection before and after every op
   to count all its words; that distorts its latencies, so it is only
   used for the untimed counting pass (see [Bench.count_words]). *)
let create ?(exact = false) ?calib () =
  { lat = buf 65536; start = buf 65536; n = 0; words = 0; timed_ns = 0;
    exact; exact_words = 0.; failed = 0; failures = []; calib }

let grow b n =
  let bigger = buf (2 * n) in
  Bigarray.Array1.blit b (Bigarray.Array1.sub bigger 0 n);
  bigger

let push m ~t0 ns =
  if m.n = Bigarray.Array1.dim m.lat then begin
    m.lat <- grow m.lat m.n;
    m.start <- grow m.start m.n
  end;
  m.lat.{m.n} <- ns;
  m.start.{m.n} <- t0;
  m.n <- m.n + 1

let record m ~e0 ~w0 ~t0 =
  let t1 = Clock.now_ns () in
  let w1 = Clock.words () in
  if m.exact then m.exact_words <- m.exact_words +. (Clock.exact_words () -. e0);
  push m ~t0 (t1 - t0);
  m.words <- m.words + (w1 - w0);
  m.timed_ns <- m.timed_ns + (t1 - t0);
  Option.iter Calib.tick m.calib

(* Run one op inside the timed span; an op that raises is still
   counted, then the exception passes on.  In exact mode the forced
   minor collections that bring the Gc statistics up to date happen
   outside the span, and so does a due host-speed sample. *)
let time m f =
  let e0 = if m.exact then Clock.exact_words () else 0. in
  let w0 = Clock.words () in
  let t0 = Clock.now_ns () in
  match f () with
  | v ->
    record m ~e0 ~w0 ~t0;
    v
  | exception exn ->
    record m ~e0 ~w0 ~t0;
    raise exn

(* Like [time], also returning the op's own latency and words. *)
let time_op m f =
  let n0 = m.n and w0 = m.words in
  let v = time m f in
  (v, m.lat.{n0}, m.words - w0)

let fail m fmt =
  Printf.ksprintf
    (fun s ->
      m.failed <- m.failed + 1;
      if List.length m.failures < 5 then m.failures <- s :: m.failures)
    fmt

(* Whole cycles until [seconds] have passed, at least one. *)
let run_cycles ~seconds cycle =
  let t0 = Clock.now_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let rec go c =
    cycle c;
    if Clock.now_ns () - t0 < budget then go (c + 1) else c + 1
  in
  go 0

let latencies m = Array.init m.n (fun i -> float_of_int m.lat.{i})

(* Each op's latency scaled to the reference host's speed (see
   [Calib]): what it would have taken had the host not slowed down or
   sped up around it. *)
let scaled m c =
  Array.init m.n (fun i ->
      let t0 = m.start.{i} and ns = m.lat.{i} in
      float_of_int ns *. Calib.factor c ~t0 ~t1:(t0 + ns))
