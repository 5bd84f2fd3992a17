(* Host-speed calibration.

   The hosts the benchmark runs on change speed by up to 2x, in phases
   from seconds to minutes, with no CPU steal: a run that falls into a
   slow phase is slow in every round, so the best of its rounds cannot
   hide it.  Every host time the benchmark reports is therefore scaled
   to a reference host speed.  Just before a measurement, a fixed
   kernel that allocates nothing (a heap sort of 4096 ints) is timed,
   and the measured time is multiplied by [reference_s /. kernel time].
   The kernel is the benchmark's own code, so no change to the compiler
   can move it. *)

let n = 4096

(* a fixed pseudo-random permutation to sort, and the array sorted in place *)
let src = Array.init n (fun i -> i * 48271 mod 65521)
let work = Array.make n 0

let kernel () =
  Array.blit src 0 work 0 n;
  Array.sort Int.compare work

(* the kernel's time on the reference host: the median, over runs on a
   2-vCPU x86 host, of [measure ()] *)
let reference_s = 1.3e-3

(* the fastest of three kernel runs: the first may pay for the cache
   misses the measured code left behind *)
let measure () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    kernel ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* a calibration is reused for [every] seconds, so that ops far shorter
   than the kernel do not pay for one each *)
let every = 0.1

let factor_ = ref 1.0
let last = ref neg_infinity

(* every kernel time measured so far, for the run-health metric *)
let measured = ref []

(* [reference_s /. kernel time], from a calibration at most [every]
   seconds old; [~fresh:true] always calibrates anew *)
let factor ?(fresh = false) () =
  let t = Unix.gettimeofday () in
  if fresh || t -. !last >= every then begin
    let k = measure () in
    measured := k :: !measured;
    factor_ := reference_s /. k;
    last := Unix.gettimeofday ()
  end;
  !factor_
