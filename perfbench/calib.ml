(* Host calibration: how fast this host runs fixed code, sampled through
   the run, so that timings can be reported at a reference host speed.

   The benchmark runs on a few cores of a shared host whose speed drifts by
   tens of percent within minutes (neighbours contend for the cores, their
   caches and memory), and that drift moves every timing of a run
   together. The probe is fixed code that no change to the repository can
   reach: it inserts 20,000 keys into an empty [Stdlib.Map], allocating,
   chasing pointers and collecting the way the compiler, the executor and
   the training loop around the GEMMs do. It starts right after an untimed
   minor collection, so it does not pay for the program's own young
   garbage; its collections do a fixed amount of work for what it
   allocates.

   The workload runs the probe between its operations, never inside one,
   about every [interval] seconds. [factor_at] is the host speed around a
   moment; README.md ("Host speed") says how the probe and its window were
   chosen and how well they track each workload. *)

let now = Unix.gettimeofday

(* The reference probe time, in seconds: about the median on a quiet core
   of the 2-vCPU Xeon host the benchmark was tuned on. Only its ratio to a
   run's own probes matters, and it never changes, so a program change
   moves scaled timings exactly as it moves raw ones on a steady host. *)
let reference_s = 0.0050

module M = Map.Make (Int)

let build () =
  let m = ref M.empty in
  for i = 1 to 20_000 do
    m := M.add (i * 7919 land 65535) i !m
  done;
  M.cardinal !m

let samples : (float * float) list ref = ref [] (* (when, seconds), newest first *)
let last = ref neg_infinity
let interval = 0.25

let sample () =
  Gc.minor ();
  let t0 = now () in
  ignore (Sys.opaque_identity (build ()));
  last := now ();
  samples := (!last, !last -. t0) :: !samples

(* Probe when [interval] has passed since the last probe. *)
let tick () = if now () -. !last >= interval then sample ()

(* Five probes in a row: before the workload and after it, so that its
   first and last operations have probes on both sides. *)
let burst () =
  for _ = 1 to 5 do
    sample ()
  done

(* The host speed factor at time [t]: the median of the [local] probes
   nearest to [t] over the reference, above 1 on a host slower than the
   reference. Local, so that a duration is scaled by the speed of the
   seconds it ran in; call it once the run's probes are all taken. *)
let local = 11

let factor_at =
  let sorted = ref [||] in
  fun t ->
    if Array.length !sorted <> List.length !samples then
      sorted := Array.of_list (List.rev !samples);
    let a = !sorted in
    let n = Array.length a in
    (* The first probe taken at or after [t], by bisection. *)
    let rec first lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst a.(mid) < t then first (mid + 1) hi else first lo mid
    in
    let lo = max 0 (min (n - local) (first 0 n - (local / 2))) in
    Stats.median (List.init (min local n) (fun i -> snd a.(lo + i))) /. reference_s

(* The same over the whole run, for the report. *)
let median_s () = Stats.median (List.map snd !samples)
let factor () = median_s () /. reference_s
let count () = List.length !samples
