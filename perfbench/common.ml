(* What every workload shares: the explicit knobs, the kernel runtime, the
   correctness tally, the measuring window and the result record. *)

open Echo_tensor

let now = Unix.gettimeofday

(* Environment knobs that would silently change the program under
   measurement. The benchmark passes every one of these explicitly, so a set
   variable means the caller expects an effect the run would not have. *)
let refused_env =
  [
    "ECHO_DOMAINS"; "ECHO_FUSION"; "ECHO_POLICY"; "ECHO_FAULTS"; "ECHO_SANITIZE";
    "ECHO_VERIFY";
  ]

let check_env () =
  match
    List.filter (fun v -> Option.is_some (Sys.getenv_opt v)) refused_env
  with
  | [] -> ()
  | set ->
    Printf.eprintf
      "perfbench: refusing to start: %s set in the environment — the \
       benchmark fixes domains, fusion, planner, faults, sanitizer and \
       verification itself; unset %s\n"
      (String.concat ", " set)
      (if List.length set = 1 then "it" else "them");
    exit 2

(* The kernel runtime with [want] domains, capped at [nproc]; never the
   process default sized by the environment. Returns the domain count. *)
let make_runtime want =
  let domains = min want (Parallel.hardware_parallelism ()) in
  (domains, Parallel.create ~domains ())

(* Correctness tally: every operation the workload attempts, and every one
   that failed or answered wrongly. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let tally () = { attempted = 0; failed = 0; failures = [] }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.failures <- what :: t.failures
  end

(* The measuring window: at least [seconds], and long enough that the
   workload's reported tail percentile has ten samples beyond it — unless
   the hard cap is reached first (reported in the run record). *)
type window = { seconds : float; floor : int; cap : float; start : float }

let cap_s = 110.0

let window ~seconds ~tail_q =
  { seconds; floor = Stats.samples_for tail_q; cap = cap_s; start = now () }

let elapsed w = now () -. w.start

let finished w ~samples =
  (elapsed w >= w.seconds && samples >= w.floor) || elapsed w >= w.cap

(* A measured duration in seconds and when it ended; [at_ref] scales it
   to the reference host speed by the probes taken around it (Calib). *)
type dur = { raw : float; ended : float }

let since t0 =
  let t = now () in
  { raw = t -. t0; ended = t }

let at_ref d = d.raw /. Calib.factor_at d.ended
let sum_durs f ds = List.fold_left (fun acc d -> acc +. f d) 0.0 ds

type result = {
  setup_s : dur list;  (** one sample per set-up repetition *)
  latency : dur list;  (** the workload's unit operation *)
  tail_q : float;  (** the reported tail percentile *)
  work : float;  (** units of work done in the window *)
  busy : dur list;  (** the window's operations, once each *)
  work_unit : string;
  peak_bytes : int;
  tally : tally;
  layers : (string * float) list;  (** per-layer metrics (traced run) *)
  unmeasured : (string * string) list;
      (** (metric-name prefix, why it reads 0) for the per-layer metrics the
          workload exercises but cannot measure from outside; a missing
          metric with no entry here is a layer the workload does not
          exercise *)
  counts : (string * string) list;  (** run-stable facts for the record *)
  notes : string list;  (** lines for the human-readable report *)
}

(* The high-water mark of the process's resident set, in MiB. *)
let peak_rss_mib () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
            ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
          | _ -> scan ()
        in
        scan ())
  in
  try from_proc ()
  with _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. (1024.0 *. 1024.0)

let ms s = 1e3 *. s

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Equal within [rtol] of the reference's largest magnitude. *)
let close_enough ~rtol ~reference actual =
  let scale =
    Array.fold_left
      (fun acc x -> Float.max acc (Float.abs x))
      0.0 (Tensor.to_array reference)
  in
  Tensor.shape reference = Tensor.shape actual
  && Tensor.max_abs_diff reference actual <= rtol *. scale
