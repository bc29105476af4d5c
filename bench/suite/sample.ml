(* Monotonic time and order statistics shared by every phase of the suite. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs = Array.of_list (List.sort Float.compare xs)

(* Linear interpolation between order statistics (Hyndman-Fan type 7).  A
   failed operation enters as [infinity], so a percentile that reaches into
   the failures reads as infinite instead of being averaged away. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float h in
    let frac = h -. float_of_int i in
    if i + 1 >= n || frac = 0.0 then a.(i)
    else if a.(i + 1) = infinity then infinity
    else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let minimum xs = percentile 0.0 xs
let median = percentile 0.5

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive" method),
   so [compare] reports the same quartiles as any Python tooling that reads
   the same runs. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then
    let x = if n = 0 then nan else a.(0) in
    (x, x, x)
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
