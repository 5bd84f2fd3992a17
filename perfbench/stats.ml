(* Small statistics kit for the benchmark: nearest-rank percentiles with
   the tail-sample rule, geometric means, and the seeded op order. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* nearest rank: the smallest value with at least [p]% of the samples at
   or below it; rank is 1-based *)
let rank ~p n =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  if p <= 0.0 || p > 100.0 then invalid_arg "Stats.rank: p outside (0, 100]";
  Int.max 1 (Int.min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

let beyond ~p n = n - rank ~p n

let min_beyond = 10

(* A tail percentile is only reported when at least [min_beyond] samples
   lie beyond it: with fewer, one slow sample decides it. *)
let percentile ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  if p > 50.0 && beyond ~p n < min_beyond then
    invalid_arg
      (Printf.sprintf "Stats.percentile: p%g of %d samples has %d beyond it (< %d)"
         p n (beyond ~p n) min_beyond);
  a.(rank ~p n - 1)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [samples] holds rounds of [items] values each, round after round; the
   result is [f] of each item's values over the rounds *)
let per_item f ~items samples =
  let n = Array.length samples in
  if items <= 0 || n = 0 || n mod items <> 0 then
    invalid_arg "Stats.per_item: samples are not whole rounds";
  Array.init items (fun i -> f (Array.init (n / items) (fun r -> samples.((r * items) + i))))

let geomean xs =
  if xs = [] then invalid_arg "Stats.geomean: no values";
  List.iter
    (fun x ->
      if not (x > 0.0 && Float.is_finite x) then
        invalid_arg (Printf.sprintf "Stats.geomean: %g is not positive and finite" x))
    xs;
  let n = float_of_int (List.length xs) in
  Float.exp (List.fold_left (fun acc x -> acc +. Float.log x) 0.0 xs /. n)

(* Fisher-Yates over an explicitly seeded generator: the order depends on
   [seed] only, never on the global Random state *)
let shuffle ~seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
