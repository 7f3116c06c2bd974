(* The host's speed, measured by a fixed reference kernel.

   The host this benchmark was tuned on gives it two vCPUs of a shared
   machine whose speed changes by up to 1.7x for seconds to minutes at a
   time, with no steal time to show for it: the same instructions simply
   run slower.  No statistic over a run can undo a slow spell that covers
   the whole run, so the untraced run measures the host alongside the
   program.  Between ops it runs a small kernel of fixed work that shares
   no code with SAGE, and each op's time is scaled by how much slower or
   faster than [nominal_ns] the kernel ran around it.  A change to SAGE
   moves the op and not the kernel, so it shows in full; a slow spell
   moves both, and cancels.

   The kernel allocates nothing, so it does not change the GC state the
   ops run in.  It mixes register arithmetic with dependent loads over a
   16 KB ring, small enough that how much of the cache the ops left it
   changes its time by little: over a 2 MB ring it ran 2.5 times slower
   between spec-compile's ops than between packet-path's. *)

let ring_len = 1 lsl 11

(* One cycle through all slots (Sattolo's algorithm), seeded apart from
   the workload so every run chases the same ring. *)
let ring =
  let a = Array.init ring_len Fun.id in
  let rng = Random.State.make [| 0x5a6e |] in
  for i = ring_len - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let steps = 4096

let kernel () =
  let p = ref 0 and h = ref 0x9e3779b9 in
  for _ = 1 to steps do
    p := Array.unsafe_get ring !p;
    for _ = 1 to 16 do
      h := (!h lxor (!h lsr 13)) * 0x5bd1e995 + !p
    done
  done;
  ignore (Sys.opaque_identity !h)

(* The kernel's time on the host the benchmark was written on (a 2-vCPU
   Intel Xeon VM, OCaml 5.1.1 without flambda) when this was set.  Scaled
   times read as on that host at that speed; changing it rescales every
   time metric, so it is part of the benchmark's definition. *)
let nominal_ns = 170_000.

(* How often the untraced run samples the kernel, and over how many
   neighbouring samples a factor is smoothed.  At 0.17 ms per kernel
   every 4 ms the kernel costs about 4% of a run. *)
let every_ns = 4_000_000
let window = 4

(* Samples live outside the OCaml heap, like [Meter]'s latencies, so
   they do not show in peak_heap_mb however long a run is. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable at : ints;  (* end of each sample, ns *)
  mutable ns : floats;  (* kernel time of each sample *)
  mutable n : int;
  mutable next_ns : int;  (* the next sample is due at *)
}

let create () =
  { at = Bigarray.(Array1.create int c_layout 8192);
    ns = Bigarray.(Array1.create float64 c_layout 8192);
    n = 0; next_ns = 0 }

let grow b n =
  let bigger = Bigarray.(Array1.create (Array1.kind b) c_layout (2 * n)) in
  Bigarray.Array1.blit b (Bigarray.Array1.sub bigger 0 n);
  bigger

let sample c =
  if c.n = Bigarray.Array1.dim c.at then begin
    c.at <- grow c.at c.n;
    c.ns <- grow c.ns c.n
  end;
  let t0 = Clock.now_ns () in
  kernel ();
  let t1 = Clock.now_ns () in
  c.at.{c.n} <- t1;
  c.ns.{c.n} <- float_of_int (t1 - t0);
  c.n <- c.n + 1;
  c.next_ns <- t1 + every_ns

(* A sample if one is due; called between ops, outside any timed span. *)
let tick c = if Clock.now_ns () >= c.next_ns then sample c

(* Several samples back to back, around work too short or too rare for
   [tick] to bracket (each set-up). *)
let burst c =
  for _ = 1 to 2 * window + 1 do
    sample c
  done

(* Index of the first sample taken after [t]. *)
let after c t =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if c.at.{mid} < t then go (mid + 1) hi else go lo mid
  in
  go 0 c.n

(* The speed factor for work done from [t0] to [t1]: nominal over the
   median kernel time of the [window] samples before [t0], those inside,
   and the [window] after [t1].  Below 1 on a slow host. *)
let factor c ~t0 ~t1 =
  if c.n = 0 then invalid_arg "Calib.factor: no samples";
  let lo = max 0 (after c t0 - window) and hi = min c.n (after c t1 + window) in
  let lo, hi = if lo < hi then (lo, hi) else (max 0 (c.n - window), c.n) in
  nominal_ns /. Stats.median (Array.init (hi - lo) (fun i -> c.ns.{lo + i}))

(* The median speed factor over every sample, for stderr. *)
let overall c = nominal_ns /. Stats.median (Array.init c.n (fun i -> c.ns.{i}))
