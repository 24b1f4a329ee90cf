(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (R-7): q in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))
let sum xs = List.fold_left ( +. ) 0.0 xs

(* A percentile q is reported only with at least ten samples strictly
   beyond its (interpolated) rank q * (n - 1). *)
let samples_for q = int_of_float (Float.ceil (10.0 /. (1.0 -. q) -. 1e-9)) + 1

let beyond ~q n = n - 1 - int_of_float (Float.ceil (q *. float_of_int (n - 1) -. 1e-9))

type summary = { n : int; p25 : float; p50 : float; p75 : float; tail : float }

let summarise ?(tail_q = 0.9) xs =
  let a = sorted xs in
  {
    n = Array.length a;
    p25 = quantile_sorted a 0.25;
    p50 = quantile_sorted a 0.5;
    p75 = quantile_sorted a 0.75;
    tail = quantile_sorted a tail_q;
  }

let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))
