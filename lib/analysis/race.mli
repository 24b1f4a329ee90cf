(** Static race / partition-disjointness analysis for the parallel
    executor.

    The compiled executor fans heavy kernels out over
    [Parallel.parallel_for]; these checkers prove, per instruction, that
    the fan-out cannot race: the chunks tile the destination exactly
    (pairwise-disjoint writes), no gathered read can overlap a concurrent
    write through an in-place alias, fused sweeps stay inside every
    member's and external's extent, the liveness plan never recycles a
    buffer under a pending read, and no two address-overlapping buffers
    are ever simultaneously live.

    Every predicate here deliberately {e duplicates} the runtime — the
    chunk formula, the fan-out gate, the per-operator access patterns —
    instead of importing it, so the checks are translation validation,
    not tautology (same philosophy as {!Verify}). The [?chunk_bounds],
    [?intervals] and [?layout] overrides are how {!Mutate}'s corrupted
    artifacts are injected to prove each checker actually fires. *)

open Echo_ir
module Report = Echo_diag.Report

(** {1 The access model} *)

type access = {
  rows : int;  (** the index range handed to [parallel_for] *)
  stride : int;
      (** dst elements owned per index (a ragged last index, such as a
          matmul's last 4-row tile, owns fewer) *)
  work : int;  (** per-index scalar work, mirroring the kernels' hints *)
  may_alias : Node.t list;
      (** inputs the kernel reads chunk-aligned (or wholly before the
          fan-out): sharing the destination buffer is race-free *)
  no_alias : Node.t list;
      (** inputs the kernel gathers across chunk boundaries: a read from
          these races a concurrent domain's write if they share the
          destination buffer *)
  fans_out : bool;  (** the kernel consults [parallel_for] at all *)
}

val access_of : Node.t -> access
(** The re-derived footprint of the node's compiled (unfused) kernel. *)

val fused_access : Fuse.group -> access
(** The footprint of a fused group's single step-outer sweep. *)

val derive_parts : Echo_tensor.Parallel.t -> rows:int -> work:int -> int
(** How many chunks [parallel_for] splits [rows] indices of [work] weight
    into under the runtime — the gate, quantum and caps re-stated.
    [1] means sequential. *)

val chunk_bounds : int -> int -> int -> int * int
(** [chunk_bounds n parts i] — the runtime's partition formula,
    re-stated. *)

(** {1 Checkers}

    Each returns a report with every finding; composable via
    {!Report.append}. Check names: ["race-partition"] (coverage /
    disjointness), ["race-sharing"] (false-sharing lint, [Info]),
    ["race-alias"] (in-place alias vs gathered read), ["race-fused"]
    (sweep extent vs member/external extents), ["race-liveness"] (plan
    intervals vs re-derived last reads), ["race-address"] (overlapping
    live buffers in the arena layout). *)

val check_kernels :
  ?chunk_bounds:(int -> int -> int -> int * int) ->
  ?fusion:Fuse.plan ->
  ?binding:(Node.t * int) list ->
  runtime:Echo_tensor.Parallel.t ->
  Graph.t ->
  Report.t
(** Per fanned-out instruction: the chunks returned by [?chunk_bounds]
    (default: the re-stated runtime formula) must tile [0, rows) exactly
    — monotone, gap-free, overlap-free — and no [no_alias] input may
    share the destination's physical buffer. Also emits one [Info]
    summarising chunk boundaries that fall inside a 64-byte cache line
    (false sharing). *)

val check_fused : Fuse.plan -> Report.t
(** Every member of a group must span exactly the root's sweep, and every
    external must span the sweep or be a single cell (the [ScaleBy]
    multiplier, read wholly before the fan-out). *)

val check_lifetimes :
  ?fusion:Fuse.plan -> intervals:(int * int * int) list -> Graph.t -> Report.t
(** The plan's [(node_id, def_step, last_step)] triples against
    re-derived positions and last reads: an early expiry is a stale-read
    race (the pool recycles the buffer under a pending read), a late one
    a phantom read, and every non-persistent, non-interior node must have
    exactly one interval. *)

val check_addresses :
  ?fusion:Fuse.plan ->
  ?layout:(int * int) list ->
  Graph.t ->
  (Node.t * int) list ->
  Report.t
(** Walk the schedule over a concrete address layout ([(bid, base)] in
    elements; default lays the buffers end to end) and flag any write
    that lands on bytes still live for another value — the sanctioned
    same-buffer in-place handover (overwriter {e is} the last reader)
    excepted. *)

val check :
  ?chunk_bounds:(int -> int -> int -> int * int) ->
  ?layout:(int * int) list ->
  ?intervals:(int * int * int) list ->
  ?fusion:Fuse.plan ->
  ?binding:(Node.t * int) list ->
  runtime:Echo_tensor.Parallel.t ->
  Graph.t ->
  Report.t
(** All of the above, gated on which artifacts are supplied:
    {!check_kernels} always, {!check_fused} with [?fusion],
    {!check_lifetimes} with [?intervals], {!check_addresses} with
    [?binding]. [Pipeline.race_verify] calls this with every artifact of
    a compiled executable. *)
