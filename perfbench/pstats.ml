(* Sample statistics shared by every workload: nearest-rank
   percentiles, the ten-samples-beyond rule, and medians. *)

let min_beyond = 10

(* 1-based nearest rank of percentile [p] (0 < p <= 100) among [n]
   samples: the smallest rank whose share of samples is at least [p]%.
   The epsilon keeps p = 99.9 from rounding up a whole rank. *)
let rank n p =
  if n <= 0 then invalid_arg "Pstats.rank: no samples";
  max 1 (min n (int_of_float (ceil ((float n *. p /. 100.) -. 1e-9))))

let beyond n p = n - rank n p

(* A percentile is reportable only with at least [min_beyond] samples
   ranked above it. *)
let supported n p = n > 0 && beyond n p >= min_beyond

(* Smallest sample count for which [p] is reportable. *)
let min_samples p =
  let rec go n = if supported n p then n else go (n + 1) in
  go 1

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let percentile_sorted a p = a.(rank (Array.length a) p - 1)

let percentile samples p = percentile_sorted (sorted samples) p

let median samples = percentile samples 50.

let sum samples = Array.fold_left ( +. ) 0. samples
