(** Liveness-based memory planning and footprint measurement.

    Models the two allocator disciplines that matter for reproducing
    GPU-footprint numbers:

    - the {e live peak}: the best any allocator could do — the maximum over
      schedule steps of the bytes simultaneously live (persistent buffers +
      transient buffers + the executing kernel's workspace);
    - the {e arena size}: what an MXNet-style exact-size-reuse pool actually
      reserves — freed buffers are recycled only for identically-sized
      requests, so the arena grows monotonically and its final size is the
      device footprint an external observer (nvidia-smi) reports.

    Benchmarks report the arena size as "the footprint"; the live peak is the
    ideal-allocator reference.

    The same schedule walk that sizes the arena also assigns every transient
    slot its physical buffer, and the report carries that {e binding}. It is
    the only buffer assignment in the system: [Echo_compiler.Executor]
    allocates exactly these buffers, so the arena is the executor's measured
    footprint by construction. *)

open Echo_ir

type report = {
  arena_bytes : int;  (** persistent + transient pool + max workspace *)
  live_peak_bytes : int;  (** ideal-allocator peak, same inclusions *)
  peak_step : int;  (** schedule index at which the live peak occurs *)
  weight_bytes : int;
  input_bytes : int;
  stash_bytes : int;  (** forward feature maps consumed by backward nodes *)
  max_workspace_bytes : int;
  breakdown : (Category.t * int) list;
      (** live bytes per category at the live-peak step (all categories
          present, zeros included) *)
  node_count : int;
  step_of_backward_start : int option;
      (** first schedule index executing a backward-region node *)
  graph : Graph.t;  (** the planned graph; slots index its schedule *)
  fusion : Fuse.plan option;  (** the fusion plan the binding assumes *)
  slot_buffer : int array;
      (** by schedule slot: the physical buffer id the slot writes, or [-1]
          for persistent slots and fused interiors. Ids are dense and
          numbered in first-use order. *)
  buffer_numel : int array;  (** by buffer id: element count *)
  slot_expiry : int array;
      (** by schedule slot: the step of the last read of the slot's value
          (the liveness interval's [last_step]); [max_int] for graph
          outputs and slots without an interval *)
}

val inplace_capable : Node.t -> bool
(** True for operators allowed to write their result into a dying input's
    buffer of the same size (elementwise families plus the fused
    softmax/softmax-xent kernels). *)

val plan :
  ?reuse:bool ->
  ?inplace:bool ->
  ?fusion:Fuse.plan ->
  ?liveness:Liveness.t ->
  Graph.t ->
  report
(** [reuse] (default [true]) enables the exact-size pool, a per-size LIFO
    stack of free buffer ids; with [~reuse:false] every transient
    allocation is fresh, so [arena_bytes] degenerates to the sum of all
    transient buffers — the "no memory planning" strawman.
    [inplace] (default [true]) lets same-shape elementwise operators write
    into a dying input's buffer (MXNet's in-place optimisation) — gradient
    accumulation chains then cost one buffer instead of one per step.
    [fusion] plans for the fused executor: group interiors get no buffer,
    external inputs of a group stay live to the root's step, and a root's
    in-place candidates are the group's externals. The resulting
    [arena_bytes] equals the fused executor's measured footprint, exactly as
    in the unfused case.

    [liveness] (default [Liveness.analyse ?fusion graph]) is the analysis
    buffers are freed and recycled against. Overriding it is the race-verify
    mutation harness's injection point: a corrupted interval list
    ({!Liveness.of_intervals}) becomes a binding that recycles a buffer
    under a pending read, and an executor compiled from it must trip the
    shadow-memory sanitizer. *)

val intervals : report -> (int * int * int) list
(** [(node id, def step, last step)] for every slot that owns a buffer, in
    schedule order: the lifetimes the binding was made against. *)

val reduction_factor : baseline:report -> report -> float
(** Ratio of arena footprints (baseline / optimised). *)

val pp : Format.formatter -> report -> unit
