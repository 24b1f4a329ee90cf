open Echo_tensor
open Echo_ir
open Echo_exec
module Sanitize = Echo_analysis.Sanitize

type t = {
  plan : Memplan.report;  (** the buffer plan this executor materialises *)
  runtime : Parallel.t;
  nodes : Node.t array;  (** the frozen schedule; slot = index *)
  instrs : (unit -> unit) array;
      (** one closure per slot; with the sanitizer on, each is wrapped in
          its shadow checks *)
  active_instrs : int;  (** non-nop instructions, before any wrapping *)
  values : Tensor.t array;
  slot_of_id : (int, int) Hashtbl.t;
  persistent : (Node.t * int) array;  (** (node, slot), schedule order *)
  is_persistent_slot : bool array;
  fed : bool array;  (** indexed by slot; meaningful for persistent slots *)
  mutable all_fed : bool;
  output_slots : int array;
  outs : Tensor.t array;
  transient_bytes : int;
  persistent_bytes : int;
  max_workspace_bytes : int;
  fallback_count : int;  (** instructions that evaluate through Interp *)
  mutable pending_flips : (int * int * int) list;
      (** (slot, index, bit) single-event upsets to apply during the next
          {!run}, right after the slot's instruction writes; that run
          consumes them *)
  sanitize : Sanitize.t option;
      (** shadow-memory sanitizer compiled around every instruction;
          [None] when compiled with the sanitizer off *)
}

exception Budget_exceeded of { requested_bytes : int; budget_bytes : int }

let () =
  Printexc.register_printer (function
    | Budget_exceeded { requested_bytes; budget_bytes } ->
      Some
        (Printf.sprintf
           "Executor.Budget_exceeded { requested_bytes = %d; budget_bytes = \
            %d }"
           requested_bytes budget_bytes)
    | _ -> None)

let nop () = ()

let compile ?budget_bytes ?runtime ?sanitize (plan : Memplan.report) =
  let runtime =
    match runtime with Some r -> r | None -> Parallel.default ()
  in
  let sanitize_mode =
    match sanitize with Some m -> m | None -> Sanitize.env_mode ()
  in
  let graph = plan.Memplan.graph and fusion = plan.Memplan.fusion in
  let slot_buffer = plan.Memplan.slot_buffer in
  (* A group root compiles to one fused instruction over the group's
     external inputs; interiors own no buffer in the plan, so they get no
     tensor and no instruction. *)
  let group_of_root node =
    match fusion with
    | Some f -> Fuse.group_of_root f (Node.id node)
    | None -> None
  in
  let nodes = Array.of_list (Graph.nodes graph) in
  let n = Array.length nodes in
  let slot_of_id = Hashtbl.create (2 * n) in
  Array.iteri (fun i node -> Hashtbl.replace slot_of_id (Node.id node) i) nodes;
  let values = Array.make n (Tensor.scalar 0.0) in
  let is_persistent_slot = Array.make n false in
  let persistent = ref [] in
  let persistent_bytes = ref 0 in
  let max_ws = ref 0 in
  let transient_bytes = ref 0 in
  (* Budget enforcement happens here, during allocation, so the raise
     carries the running arena total at the moment it first crosses the
     ceiling — a simulated device OOM, not a post-hoc check. *)
  let check_budget () =
    match budget_bytes with
    | Some budget ->
      let total = !persistent_bytes + !transient_bytes + !max_ws in
      if total > budget then
        raise (Budget_exceeded { requested_bytes = total; budget_bytes = budget })
    | None -> ()
  in
  (* Phase 1: materialise the planner's binding. Each buffer id gets one
     array at its first use, so the running total at every step is the
     arena the planner had reached there; [writers] counts the slots that
     write each buffer — a constant owning a single-writer buffer can be
     materialised once at compile time and skipped at run time. *)
  let buffers = Array.make (Array.length plan.Memplan.buffer_numel) [||] in
  let writers = Array.make (Array.length buffers) 0 in
  Array.iteri
    (fun step node ->
      let ws = Workspace.bytes node in
      if ws > !max_ws then max_ws := ws;
      (match Node.op node with
      | Op.Placeholder | Op.Variable ->
        is_persistent_slot.(step) <- true;
        persistent := (node, step) :: !persistent;
        persistent_bytes := !persistent_bytes + Node.size_bytes node
      | _ ->
        let bid = slot_buffer.(step) in
        if bid >= 0 then begin
          if writers.(bid) = 0 then begin
            buffers.(bid) <- Array.make plan.Memplan.buffer_numel.(bid) 0.0;
            transient_bytes := !transient_bytes + Node.size_bytes node
          end;
          writers.(bid) <- writers.(bid) + 1;
          values.(step) <- Tensor.create (Node.shape node) buffers.(bid)
        end);
      check_budget ())
    nodes;
  (* Phase 2: compile each node to one closure over its input slots and its
     fixed destination tensor. Runs after phase 1 so writer counts are
     final. *)
  let instrs = Array.make n nop in
  let build node dst ~single_writer =
    let slots =
      Array.of_list
        (List.map
           (fun i -> Hashtbl.find slot_of_id (Node.id i))
           (Node.inputs node))
    in
    let x () = values.(Array.unsafe_get slots 0) in
    let y () = values.(Array.unsafe_get slots 1) in
    let module I = Tensor.Into in
    match Node.op node with
    | Op.Placeholder | Op.Variable -> assert false
    | Op.Zeros ->
      if single_writer then begin
        I.fill ~dst 0.0;
        nop
      end
      else fun () -> I.fill ~dst 0.0
    | Op.ConstFill v ->
      if single_writer then begin
        I.fill ~dst v;
        nop
      end
      else fun () -> I.fill ~dst v
    | Op.DropoutMask { p; seed } ->
      let mask = Tensor.dropout_mask ~seed ~p (Node.shape node) in
      if single_writer then begin
        I.blit ~src:mask ~dst;
        nop
      end
      else fun () -> I.blit ~src:mask ~dst
    | Op.Neg -> fun () -> I.neg ~runtime (x ()) ~dst
    | Op.Scale k -> fun () -> I.scale ~runtime k (x ()) ~dst
    | Op.AddScalar k -> fun () -> I.add_scalar ~runtime k (x ()) ~dst
    | Op.PowConst p -> fun () -> I.pow_const ~runtime p (x ()) ~dst
    | Op.Sigmoid -> fun () -> I.sigmoid ~runtime (x ()) ~dst
    | Op.Tanh -> fun () -> I.tanh_ ~runtime (x ()) ~dst
    | Op.Relu -> fun () -> I.relu ~runtime (x ()) ~dst
    | Op.Exp -> fun () -> I.exp_ ~runtime (x ()) ~dst
    | Op.Log -> fun () -> I.log_ ~runtime (x ()) ~dst
    | Op.Sqrt -> fun () -> I.sqrt_ ~runtime (x ()) ~dst
    | Op.Sq -> fun () -> I.sq ~runtime (x ()) ~dst
    | Op.Recip -> fun () -> I.recip ~runtime (x ()) ~dst
    | Op.Sign -> fun () -> I.sign ~runtime (x ()) ~dst
    | Op.Add -> fun () -> I.add ~runtime (x ()) (y ()) ~dst
    | Op.Sub -> fun () -> I.sub ~runtime (x ()) (y ()) ~dst
    | Op.Mul -> fun () -> I.mul ~runtime (x ()) (y ()) ~dst
    | Op.Div -> fun () -> I.div ~runtime (x ()) (y ()) ~dst
    | Op.Matmul { trans_a; trans_b } ->
      fun () -> I.matmul ~runtime ~trans_a ~trans_b (x ()) (y ()) ~dst
    | Op.AddBias -> fun () -> I.add_bias ~runtime (x ()) (y ()) ~dst
    | Op.ScaleBy -> fun () -> I.scale_by ~runtime (x ()) (y ()) ~dst
    | Op.Slice { axis; lo; hi } -> fun () -> I.slice ~axis ~lo ~hi (x ()) ~dst
    | Op.PadSlice { axis; lo; full } ->
      fun () -> I.pad_slice ~axis ~lo ~full (x ()) ~dst
    | Op.Concat { axis } ->
      fun () ->
        I.concat ~axis
          (Array.to_list (Array.map (fun s -> values.(s)) slots))
          ~dst
    | Op.Reshape _ -> fun () -> I.blit ~src:(x ()) ~dst
    | Op.Transpose2d -> fun () -> I.transpose2d ~runtime (x ()) ~dst
    | Op.ReduceSum { axis; keepdims } ->
      fun () -> I.reduce_sum ~runtime ~axis ~keepdims (x ()) ~dst
    | Op.ReduceMean { axis; keepdims } ->
      fun () -> I.reduce_mean ~runtime ~axis ~keepdims (x ()) ~dst
    | Op.BroadcastAxis { axis; n } ->
      fun () -> I.broadcast_axis ~axis ~n (x ()) ~dst
    | Op.Softmax -> fun () -> I.softmax ~runtime (x ()) ~dst
    | Op.LogSoftmax -> fun () -> I.log_softmax ~runtime (x ()) ~dst
    | Op.CrossEntropy ->
      fun () -> I.cross_entropy ~logits:(x ()) ~labels:(y ()) ~dst
    | Op.CrossEntropyGrad ->
      fun () -> I.cross_entropy_grad ~runtime ~logits:(x ()) ~labels:(y ()) ~dst ()
    | Op.Embedding ->
      fun () -> I.embedding ~runtime ~table:(x ()) ~ids:(y ()) ~dst ()
    | Op.EmbeddingGrad _ ->
      fun () -> I.embedding_grad ~runtime ~ids:(x ()) ~grad_out:(y ()) ~dst ()
    | (Op.Conv2d _ | Op.Conv2dGradInput _ | Op.Conv2dGradKernel _) as op ->
      (* Convolutions have no destination-passing kernel yet: evaluate via
         the reference interpreter and copy into the assigned buffer, so the
         memory discipline stays uniform. *)
      let out_shape = Node.shape node in
      fun () ->
        let ins =
          Array.to_list (Array.map (fun s -> values.(s)) slots)
        in
        I.blit ~src:(Interp.eval_node op out_shape ins) ~dst
  in
  (* One instruction per fused group: per output element the whole chain
     folds in a register, reading only the group's external inputs and
     writing only the root's buffer. The steps are built from the same named
     scalar kernels the unfused instructions use ([Tensor.f_*]), so the
     fused instruction is bit-identical to running the members one at a
     time. Operand tensors are re-fetched from [values] on every run because
     persistent slots rebind on feed. *)
  let build_fused g dst =
    let externals = Array.of_list g.Fuse.externals in
    let opslots =
      Array.map (fun e -> Hashtbl.find slot_of_id (Node.id e)) externals
    in
    let next_ext = ref 0 in
    let take () =
      let j = !next_ext in
      incr next_ext;
      j
    in
    (* Externals appear in evaluation order: the head's first input is the
       seed (operand 0); each binary member's second input is the next
       index. *)
    let step_of ~is_head member =
      if is_head then ignore (take ());
      match Node.op member with
      | Op.Neg -> Tensor.f_neg
      | Op.Scale k -> Tensor.f_scale k
      | Op.AddScalar k -> Tensor.f_add_scalar k
      | Op.PowConst p -> Tensor.f_pow_const p
      | Op.Sigmoid -> Tensor.f_sigmoid
      | Op.Tanh -> Tensor.f_tanh
      | Op.Relu -> Tensor.f_relu
      | Op.Exp -> Tensor.f_exp
      | Op.Log -> Tensor.f_log
      | Op.Sqrt -> Tensor.f_sqrt
      | Op.Sq -> Tensor.f_sq
      | Op.Recip -> Tensor.f_recip
      | Op.Sign -> Tensor.f_sign
      | Op.Add -> Tensor.f_add (take ())
      | Op.Sub -> Tensor.f_sub (take ())
      | Op.Mul -> Tensor.f_mul (take ())
      | Op.Div -> Tensor.f_div (take ())
      | Op.ScaleBy -> Tensor.f_scale_by (take ())
      | _ -> assert false (* [Fuse.elementwise] members only *)
    in
    let steps =
      match g.Fuse.members with
      | [] -> assert false
      | head :: rest ->
        let h = step_of ~is_head:true head in
        let r =
          List.rev
            (List.fold_left
               (fun acc m -> step_of ~is_head:false m :: acc)
               [] rest)
        in
        Array.of_list (h :: r)
    in
    assert (!next_ext = Array.length externals);
    let operands = Array.make (Array.length opslots) (Tensor.scalar 0.0) in
    fun () ->
      for i = 0 to Array.length opslots - 1 do
        Array.unsafe_set operands i values.(Array.unsafe_get opslots i)
      done;
      Tensor.Into.fused ~runtime steps operands ~dst
  in
  Array.iteri
    (fun step node ->
      let bid = slot_buffer.(step) in
      if bid >= 0 then
        instrs.(step) <-
          (match group_of_root node with
          | Some g -> build_fused g values.(step)
          | None -> build node values.(step) ~single_writer:(writers.(bid) = 1)))
    nodes;
  let output_slots =
    Array.of_list
      (List.map
         (fun o -> Hashtbl.find slot_of_id (Node.id o))
         (Graph.outputs graph))
  in
  let persistent = Array.of_list (List.rev !persistent) in
  let fallback_count =
    Array.fold_left
      (fun acc node ->
        match Node.op node with
        | Op.Conv2d _ | Op.Conv2dGradInput _ | Op.Conv2dGradKernel _ -> acc + 1
        | _ -> acc)
      0 nodes
  in
  (* Describe the schedule to the shadow-memory sanitizer: what each slot
     writes (bid + extent), which arena cells it reads and from which
     producer, and how long the plan keeps its value alive — all in the
     plan's buffer ids, the identities the static checkers see. *)
  let sanitizer =
    if not (Sanitize.is_on sanitize_mode) then None
    else begin
      let tracked_inputs node =
        match group_of_root node with
        | Some g -> g.Fuse.externals
        | None -> Node.inputs node
      in
      let slots =
        Array.mapi
          (fun step node ->
            let si_name =
              Printf.sprintf "%s %s" (Op.to_string (Node.op node))
                (Node.name node)
            in
            let bid = slot_buffer.(step) in
            let si_dst =
              if bid < 0 then None
              else Some (bid, Shape.numel (Node.shape node))
            in
            let si_const =
              match Node.op node with
              | Op.Zeros | Op.ConstFill _ | Op.DropoutMask _ ->
                bid >= 0 && writers.(bid) = 1
              | _ -> false
            in
            let si_reads =
              if si_dst = None then [||]
              else
                Array.of_list
                  (List.filter_map
                     (fun input ->
                       match Hashtbl.find_opt slot_of_id (Node.id input) with
                       | None -> None
                       | Some s when slot_buffer.(s) >= 0 ->
                         Some
                           (s, slot_buffer.(s), Shape.numel (Node.shape input))
                       | Some _ -> None)
                     (tracked_inputs node))
            in
            {
              Sanitize.si_name;
              si_dst;
              si_const;
              si_reads;
              si_expire = plan.Memplan.slot_expiry.(step);
            })
          nodes
      in
      Some
        (Sanitize.create sanitize_mode ~slots
           ~buffers:
             (Array.to_list (Array.mapi (fun bid arr -> (bid, arr)) buffers)))
    end
  in
  let active_instrs =
    Array.fold_left (fun acc f -> if f == nop then acc else acc + 1) 0 instrs
  in
  (* The sanitizer is compiled into the instruction array: shadow checks
     bracket every slot (nops included, so constant slots keep their
     stamps), and [run] keeps its one loop whether it is on or off. *)
  Option.iter
    (fun san ->
      Array.iteri
        (fun i instr ->
          instrs.(i) <-
            (fun () ->
              Sanitize.before_instr san i;
              instr ();
              Sanitize.after_instr san i))
        instrs)
    sanitizer;
  {
    plan;
    runtime;
    nodes;
    instrs;
    active_instrs;
    values;
    slot_of_id;
    persistent;
    is_persistent_slot;
    fed = Array.make n false;
    all_fed = Array.length persistent = 0;
    output_slots;
    outs = Array.make (Array.length output_slots) (Tensor.scalar 0.0);
    transient_bytes = !transient_bytes;
    persistent_bytes = !persistent_bytes;
    max_workspace_bytes = !max_ws;
    fallback_count;
    pending_flips = [];
    sanitize = sanitizer;
  }

let plan e = e.plan
let graph e = e.plan.Memplan.graph
let runtime e = e.runtime
let instruction_count e = Array.length e.instrs

let fused_group_count e =
  match e.plan.Memplan.fusion with Some f -> Fuse.group_count f | None -> 0

let fused_interior_count e =
  match e.plan.Memplan.fusion with Some f -> Fuse.interior_count f | None -> 0

let active_instruction_count e = e.active_instrs

let footprint_bytes e =
  e.persistent_bytes + e.transient_bytes + e.max_workspace_bytes

let transient_bytes e = e.transient_bytes
let persistent_bytes e = e.persistent_bytes

let buffer_binding e =
  List.filter_map Fun.id
    (Array.to_list
       (Array.mapi
          (fun s node ->
            let bid = e.plan.Memplan.slot_buffer.(s) in
            if bid < 0 then None else Some (node, bid))
          e.nodes))
let interp_fallback_count e = e.fallback_count
let sanitize_mode e = match e.sanitize with None -> Sanitize.Off | Some s -> Sanitize.mode s
let sanitize_report e = Option.map Sanitize.report e.sanitize

let slot_opt e node = Hashtbl.find_opt e.slot_of_id (Node.id node)

let slot e node =
  match slot_opt e node with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Executor.slot: node %s (#%d) is not in the graph"
         (Node.name node) (Node.id node))

(* The slot owns a value at run time (transient buffer or fed persistent
   tensor) — fused interiors don't. *)
let materialising e s =
  e.is_persistent_slot.(s) || e.plan.Memplan.slot_buffer.(s) >= 0

let materialises e node =
  match slot_opt e node with
  | Some s -> materialising e s
  | None -> false

let schedule_flip e ~slot ~index ~bit =
  if slot < 0 || slot >= Array.length e.nodes then
    invalid_arg
      (Printf.sprintf "Executor.schedule_flip: slot %d outside 0..%d" slot
         (Array.length e.nodes - 1));
  if not (materialising e slot) then
    invalid_arg
      (Printf.sprintf
         "Executor.schedule_flip: slot %d (%s) does not materialise — fused \
          interiors own no buffer to upset"
         slot
         (Node.name e.nodes.(slot)));
  if index < 0 || bit < 0 || bit > 63 then
    invalid_arg "Executor.schedule_flip: index must be >= 0 and bit in 0..63";
  e.pending_flips <- e.pending_flips @ [ (slot, index, bit) ]

let set_input e s tensor =
  if s < 0 || s >= Array.length e.nodes || not e.is_persistent_slot.(s) then
    invalid_arg "Executor.set_input: not an input slot";
  let node = e.nodes.(s) in
  if not (Shape.equal (Node.shape node) (Tensor.shape tensor)) then
    invalid_arg
      (Printf.sprintf "Executor.feed: feed for %s has shape %s, node has %s"
         (Node.name node)
         (Shape.to_string (Tensor.shape tensor))
         (Shape.to_string (Node.shape node)));
  e.values.(s) <- tensor;
  e.fed.(s) <- true

let feed e node tensor =
  match slot_opt e node with
  | Some s -> set_input e s tensor
  | None -> () (* feeds for nodes outside the graph are legal, like Interp *)

(* Name-based input resolution: the bridge that lets a cached executable
   serve a structurally identical graph from a different build (fresh node
   ids). Canonical fingerprints include leaf names, so a fingerprint match
   guarantees this resolution exists. *)
let input_slot_by_name e name =
  let hits =
    Array.fold_left
      (fun acc (node, s) -> if Node.name node = name then s :: acc else acc)
      [] e.persistent
  in
  match hits with
  | [ s ] -> Some s
  | [] -> None
  | _ ->
    invalid_arg
      (Printf.sprintf
         "Executor.input_slot_by_name: %d inputs are named %S — name-based \
          feeding needs unique input names"
         (List.length hits) name)

let feed_named e name tensor =
  match input_slot_by_name e name with
  | Some s -> set_input e s tensor
  | None ->
    invalid_arg
      (Printf.sprintf "Executor.feed_named: no input named %S in this graph"
         name)

let input_names e =
  Array.to_list (Array.map (fun (node, _) -> Node.name node) e.persistent)

let run_instrs instrs =
  for i = 0 to Array.length instrs - 1 do
    (Array.unsafe_get instrs i) ()
  done

let run e =
  if not e.all_fed then begin
    let missing =
      Array.fold_right
        (fun (node, s) acc ->
          if e.fed.(s) then acc
          else
            Printf.sprintf "%s (#%d)" (Node.name node) (Node.id node) :: acc)
        e.persistent []
    in
    if missing <> [] then
      raise (Interp.Missing_feed (String.concat ", " missing));
    e.all_fed <- true
  end;
  Option.iter Sanitize.begin_run e.sanitize;
  (match e.pending_flips with
  | [] -> run_instrs e.instrs
  | flips ->
    (* A pending upset patches its slot's instruction for this one run:
       the patched instruction runs the original (shadow checks included),
       then flips the value the instant it is written — before any
       consumer reads it — so the flip lands at the same dataflow point
       under every planner, fusion setting and domain count, and [Full]
       mode sees it as a foreign write at the next instruction. Several
       flips on one slot apply in scheduled order. The array is restored
       even if the run raises, so no flip stays armed. *)
    e.pending_flips <- [];
    let original = Array.copy e.instrs in
    List.iter
      (fun (s, index, bit) ->
        let instr = e.instrs.(s) in
        e.instrs.(s) <-
          (fun () ->
            instr ();
            Tensor.flip_bit e.values.(s) ~index ~bit))
      flips;
    Fun.protect
      ~finally:(fun () ->
        Array.blit original 0 e.instrs 0 (Array.length original))
      (fun () -> run_instrs e.instrs));
  Option.iter Sanitize.check_exn e.sanitize;
  let os = e.output_slots in
  for i = 0 to Array.length os - 1 do
    e.outs.(i) <- e.values.(os.(i))
  done

let outputs e = e.outs

let eval e ~feeds =
  List.iter (fun (node, t) -> feed e node t) feeds;
  run e;
  Array.to_list e.outs
