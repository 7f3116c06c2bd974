(* Order statistics over latency samples. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort compare a;
  a

(* Percentiles are given in tenths of a percent (995 = p99.5), so the
   rank arithmetic stays in integers. *)
let rank ~n permille = ((permille * n) + 999) / 1000

(* Nearest rank: the smallest sample with at least [permille]/1000 of
   all samples at or below it. *)
let percentile_sorted s permille =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile_sorted: no samples";
  s.(max 0 (min (n - 1) (rank ~n permille - 1)))

let median samples = percentile_sorted (sorted samples) 500

(* p99.9 is left out: on a shared host it swings with every
   interference burst and does not repeat between runs. *)
let tail_candidates = [ 990; 950; 900; 750; 500 ]

(* The highest candidate percentile that has at least ten samples
   beyond its rank; below twenty samples, the median. *)
let tail_permille n =
  Option.value ~default:500 (List.find_opt (fun p -> n - rank ~n p >= 10) tail_candidates)

let permille_label p =
  if p mod 10 = 0 then Printf.sprintf "p%d" (p / 10)
  else Printf.sprintf "p%d.%d" (p / 10) (p mod 10)

let mean samples =
  if Array.length samples = 0 then 0.
  else Array.fold_left ( +. ) 0. samples /. float_of_int (Array.length samples)

(* The interquartile mean: the mean of the middle half of the samples.
   Unlike the median it moves smoothly when the samples fall in a few
   clusters with gaps between them (spec-compile's eight documents),
   where the median sits on the edge of one cluster and jumps to the
   next. *)
let iqm samples =
  let s = sorted samples in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.iqm: no samples";
  let lo = n / 4 in
  let hi = max (lo + 1) (n - (n / 4)) in
  mean (Array.sub s lo (hi - lo))

let max_of samples = Array.fold_left max neg_infinity samples

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Fisher-Yates, for the seeded orders of a workload's inputs. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
