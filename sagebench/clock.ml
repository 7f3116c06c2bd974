(* The two counters every span reads: a monotonic nanosecond clock and
   the words this domain has allocated so far. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated on the minor heap so far.  On OCaml 5 this is the
   only allocation counter that is exact between collections; blocks
   too large for the minor heap bypass it. *)
let words () = int_of_float (Gc.minor_words ())

(* All words allocated so far: minor plus directly-major (promoted words
   are counted in both [minor_words] and [major_words], so they are taken
   out once).  The Gc statistics are only brought up to date by a
   collection, so this forces a minor one. *)
let exact_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
