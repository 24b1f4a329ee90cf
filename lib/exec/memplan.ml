open Echo_ir

type report = {
  arena_bytes : int;
  live_peak_bytes : int;
  peak_step : int;
  weight_bytes : int;
  input_bytes : int;
  stash_bytes : int;
  max_workspace_bytes : int;
  breakdown : (Category.t * int) list;
  node_count : int;
  step_of_backward_start : int option;
  graph : Graph.t;
  fusion : Fuse.plan option;
  slot_buffer : int array;
  buffer_numel : int array;
  slot_expiry : int array;
}

(* Elementwise operators may write their result into a dying input's buffer
   of the same size (MXNet's in-place optimisation). *)
let inplace_capable node =
  match Node.op node with
  | Op.Neg | Op.Scale _ | Op.AddScalar _ | Op.PowConst _ | Op.Sigmoid | Op.Tanh
  | Op.Relu | Op.Exp | Op.Log | Op.Sqrt | Op.Sq | Op.Recip | Op.Sign | Op.Add
  | Op.Sub | Op.Mul | Op.Div | Op.AddBias | Op.ScaleBy ->
    true
  | Op.Softmax | Op.LogSoftmax | Op.CrossEntropyGrad ->
    (* fused softmax/softmax-xent kernels overwrite their input *)
    true
  | Op.Placeholder | Op.Variable | Op.Zeros | Op.ConstFill _ | Op.DropoutMask _
  | Op.Matmul _ | Op.Slice _ | Op.PadSlice _ | Op.Concat _ | Op.Reshape _
  | Op.Transpose2d | Op.ReduceSum _ | Op.ReduceMean _ | Op.BroadcastAxis _
  | Op.CrossEntropy | Op.Embedding | Op.EmbeddingGrad _ | Op.Conv2d _
  | Op.Conv2dGradInput _ | Op.Conv2dGradKernel _ ->
    false

let plan ?(reuse = true) ?(inplace = true) ?fusion ?liveness graph =
  let liveness =
    match liveness with Some l -> l | None -> Liveness.analyse ?fusion graph
  in
  let schedule = Graph.nodes graph in
  let steps = List.length schedule in
  (* Fused interiors never materialize: no allocation, no liveness, and the
     in-place candidates of a group root are the group's external inputs —
     the buffers its fused instruction actually reads. *)
  let interior node =
    match fusion with
    | Some f -> Fuse.is_interior f (Node.id node)
    | None -> false
  in
  let inplace_inputs node =
    match fusion with
    | Some f -> Fuse.inplace_candidates f node
    | None -> Node.inputs node
  in
  let weight_bytes = ref 0 and input_bytes = ref 0 in
  List.iter
    (fun n ->
      match Node.op n with
      | Op.Variable -> weight_bytes := !weight_bytes + Node.size_bytes n
      | Op.Placeholder -> input_bytes := !input_bytes + Node.size_bytes n
      | _ -> ())
    schedule;
  let persistent = !weight_bytes + !input_bytes in
  (* The binding: buffer ids are handed out in allocation (= first-use)
     order; a slot keeps [-1] when it owns no transient buffer. *)
  let slot_buffer = Array.make steps (-1) in
  let slot_expiry = Array.make steps max_int in
  let numels = ref [] and next_bid = ref 0 in
  let slot_of node =
    (Liveness.interval liveness (Node.id node)).Liveness.def_step
  in
  (* Exact-size free pool: size -> LIFO stack of free buffer ids. *)
  let pool : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let pool_take size =
    match Hashtbl.find_opt pool size with
    | Some ({ contents = b :: rest } as l) ->
      l := rest;
      Some b
    | Some { contents = [] } | None -> None
  in
  let pool_put size b =
    match Hashtbl.find_opt pool size with
    | Some l -> l := b :: !l
    | None -> Hashtbl.replace pool size (ref [ b ])
  in
  let category = Hashtbl.create 1024 in
  let cat_of n =
    match Hashtbl.find_opt category (Node.id n) with
    | Some c -> c
    | None ->
      let c = Category.of_node graph n in
      Hashtbl.replace category (Node.id n) c;
      c
  in
  let arena = ref 0 in
  let live = ref 0 in
  let live_by_cat = Array.make Category.count 0 in
  live_by_cat.(Category.index Category.Weights) <- !weight_bytes;
  live_by_cat.(Category.index Category.Inputs) <- !input_bytes;
  let live_peak = ref persistent and peak_step = ref 0 in
  let peak_breakdown = ref (Array.copy live_by_cat) in
  let peak_ws = ref 0 in
  let max_ws = ref 0 in
  let bwd_start = ref None in
  (* Inputs whose buffer was handed over to an in-place consumer: they must
     not be freed again when their death step is processed. *)
  let transferred : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let try_inplace step node =
    if not (inplace && inplace_capable node) then None
    else begin
      let size = Node.size_bytes node in
      let eligible input =
        (not (Liveness.is_persistent input))
        && Node.size_bytes input = size
        && (not (Hashtbl.mem transferred (Node.id input)))
        && (not (Graph.is_output graph (Node.id input)))
        &&
        match Liveness.interval liveness (Node.id input) with
        | itv -> itv.Liveness.last_step = step
        | exception Not_found -> false
      in
      match List.find_opt eligible (inplace_inputs node) with
      | None -> None
      | Some input ->
        Hashtbl.replace transferred (Node.id input) ();
        let from_cat = Category.index (cat_of input) in
        let to_cat = Category.index (cat_of node) in
        live_by_cat.(from_cat) <- live_by_cat.(from_cat) - size;
        live_by_cat.(to_cat) <- live_by_cat.(to_cat) + size;
        Some slot_buffer.(slot_of input)
    end
  in
  let allocate node =
    let size = Node.size_bytes node in
    live := !live + size;
    let ci = Category.index (cat_of node) in
    live_by_cat.(ci) <- live_by_cat.(ci) + size;
    match if reuse then pool_take size else None with
    | Some bid -> bid
    | None ->
      arena := !arena + size;
      numels := Echo_tensor.Shape.numel (Node.shape node) :: !numels;
      incr next_bid;
      !next_bid - 1
  in
  List.iteri
    (fun step node ->
      if !bwd_start = None && Node.region node = Node.Backward then
        bwd_start := Some step;
      (match Liveness.interval liveness (Node.id node) with
      | itv -> slot_expiry.(step) <- itv.Liveness.last_step
      | exception Not_found -> ());
      if (not (Liveness.is_persistent node)) && not (interior node) then
        slot_buffer.(step) <-
          (match try_inplace step node with
          | Some bid -> bid
          | None -> allocate node);
      let ws = Workspace.bytes node in
      if ws > !max_ws then max_ws := ws;
      let candidate = persistent + !live + ws in
      if candidate > !live_peak then begin
        live_peak := candidate;
        peak_step := step;
        peak_breakdown := Array.copy live_by_cat;
        peak_ws := ws
      end;
      List.iter
        (fun dying ->
          if not (Hashtbl.mem transferred (Node.id dying)) then begin
            let size = Node.size_bytes dying in
            live := !live - size;
            let ci = Category.index (cat_of dying) in
            live_by_cat.(ci) <- live_by_cat.(ci) - size;
            pool_put size slot_buffer.(slot_of dying)
          end)
        (Liveness.dying_at liveness step))
    schedule;
  let breakdown_arr = !peak_breakdown in
  breakdown_arr.(Category.index Category.Workspace) <- !peak_ws;
  let breakdown =
    List.map (fun c -> (c, breakdown_arr.(Category.index c))) Category.all
  in
  {
    arena_bytes = persistent + !arena + !max_ws;
    live_peak_bytes = !live_peak;
    peak_step = !peak_step;
    weight_bytes = !weight_bytes;
    input_bytes = !input_bytes;
    stash_bytes = Liveness.stash_bytes liveness graph;
    max_workspace_bytes = !max_ws;
    breakdown;
    node_count = steps;
    step_of_backward_start = !bwd_start;
    graph;
    fusion;
    slot_buffer;
    buffer_numel = Array.of_list (List.rev !numels);
    slot_expiry;
  }

let intervals r =
  List.filter_map Fun.id
    (List.mapi
       (fun step node ->
         if r.slot_buffer.(step) < 0 then None
         else Some (Node.id node, step, r.slot_expiry.(step)))
       (Graph.nodes r.graph))

let reduction_factor ~baseline optimised =
  float_of_int baseline.arena_bytes /. float_of_int optimised.arena_bytes

let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let pp fmt r =
  Format.fprintf fmt
    "arena=%.1f MiB live_peak=%.1f MiB (step %d/%d) weights=%.1f MiB stash=%.1f \
     MiB ws=%.1f MiB"
    (mib r.arena_bytes) (mib r.live_peak_bytes) r.peak_step r.node_count
    (mib r.weight_bytes) (mib r.stash_bytes) (mib r.max_workspace_bytes)
