(* Compiler PGO analog (clang's -fprofile-use path in the paper's Fig. 5).

   Unlike BOLT, which optimizes machine code against the exact addresses the
   profile was collected on, compiler PGO must map PC-level profiles back to
   source-level structures — a lossy process (He et al., "Profile inference
   revisited"; paper Section VI-B attributes PGO's gap to exactly this).

   We model it faithfully: the same LBR profile is mapped onto the program
   IR through the binary's debug info, but each branch edge is dropped with
   a deterministic probability and counts are blurred. The compiler then
   reorders blocks within functions and orders functions (C3) using the
   degraded counts, and re-emits the whole program as a fresh binary — no
   hot/cold splitting at machine-code granularity. *)

open Ocolos_isa
open Ocolos_binary

type config = {
  edge_drop_prob : float; (* PC->source mapping failures for branch edges *)
  call_drop_prob : float;
  count_blur : float; (* counts scaled by 1 +/- blur, deterministically *)
  hot_threshold : int; (* min mapped records to reorder a function *)
}

let default_config =
  { edge_drop_prob = 0.35; call_drop_prob = 0.15; count_blur = 0.5; hot_threshold = 8 }

(* Deterministic hash in [0, 1) for drop/blur decisions. *)
let unit_hash key =
  let h = ref (key * 0x9E3779B1) in
  h := !h lxor (!h lsr 16);
  h := !h * 0x85EBCA6B;
  h := !h lxor (!h lsr 13);
  float_of_int (!h land 0xFFFFF) /. 1048576.0

let blur cfg key count =
  let f = 1.0 +. (cfg.count_blur *. ((2.0 *. unit_hash (key + 7919)) -. 1.0)) in
  max 1 (int_of_float (float_of_int count *. f))

type mapped_func = {
  mf_counts : int array; (* per-bid execution estimate *)
  mf_edges : (int * int, int) Hashtbl.t;
  mutable mf_records : int;
}

(* Map a machine-level profile onto IR blocks via debug info. *)
let map_profile cfg (program : Ir.program) (binary : Binary.t)
    (profile : Ocolos_profiler.Profile.t) =
  let funcs =
    Array.map
      (fun (f : Ir.func) ->
        { mf_counts = Array.make (Array.length f.Ir.blocks) 0;
          mf_edges = Hashtbl.create 16;
          mf_records = 0 })
      program.Ir.funcs
  in
  let debug addr = Hashtbl.find_opt binary.Binary.debug addr in
  Hashtbl.iter
    (fun (from_addr, to_addr) count ->
      if unit_hash from_addr >= cfg.edge_drop_prob then
        match (debug from_addr, debug to_addr) with
        | Some (f1, b1), Some (f2, b2) when f1 = f2 ->
          let mf = funcs.(f1) in
          let count = blur cfg from_addr count in
          let key = (b1, b2) in
          (match Hashtbl.find_opt mf.mf_edges key with
          | Some v -> Hashtbl.replace mf.mf_edges key (v + count)
          | None -> Hashtbl.add mf.mf_edges key count);
          mf.mf_counts.(b1) <- mf.mf_counts.(b1) + count;
          mf.mf_counts.(b2) <- mf.mf_counts.(b2) + count;
          mf.mf_records <- mf.mf_records + count
        | Some (f1, b1), _ ->
          let mf = funcs.(f1) in
          mf.mf_counts.(b1) <- mf.mf_counts.(b1) + count;
          mf.mf_records <- mf.mf_records + count
        | None, _ -> ())
    profile.Ocolos_profiler.Profile.branches;
  (* Straight-line ranges refine block coverage where endpoints map. *)
  Hashtbl.iter
    (fun (start_addr, end_addr) count ->
      match (debug start_addr, debug end_addr) with
      | Some (f1, b1), Some (f2, b2) when f1 = f2 ->
        let mf = funcs.(f1) in
        let count = blur cfg start_addr count in
        for b = min b1 b2 to max b1 b2 do
          (* Coarse: bids between the endpoints get covered; source-order
             bids approximate the address order here, which is exactly the
             kind of imprecision AutoFDO-style mapping suffers. *)
          if b < Array.length mf.mf_counts then mf.mf_counts.(b) <- mf.mf_counts.(b) + count
        done
      | _, _ -> ())
    profile.Ocolos_profiler.Profile.ranges;
  funcs

(* IR block byte size under the emitter's encoding (terminator excluded:
   layout-dependent). *)
let block_bytes (b : Ir.block) =
  List.fold_left
    (fun acc si ->
      acc
      +
      match si with
      | Ir.Plain i -> Instr.size i
      | Ir.SCall _ -> Instr.size (Instr.Call 0)
      | Ir.SCallInd r -> Instr.size (Instr.CallInd r)
      | Ir.SFpCreate (r, _) -> Instr.size (Instr.FpCreate (r, 0)))
    0 b.Ir.body

(* Reuse BOLT's chain-building block reorderer by presenting the mapped IR
   counts as a pseudo-reconstruction. *)
let pseudo_reconstruction (f : Ir.func) (mf : mapped_func) =
  let n = Array.length f.Ir.blocks in
  let sizes = Array.map (fun b -> max 1 (block_bytes b + 4)) f.Ir.blocks in
  let addr = Array.make n 0 and addr_end = Array.make n 0 in
  let cursor = ref 0 in
  for i = 0 to n - 1 do
    addr.(i) <- !cursor;
    cursor := !cursor + sizes.(i);
    addr_end.(i) <- !cursor
  done;
  { Ocolos_bolt.Cfg.rc_fid = f.Ir.fid;
    rc_func = f;
    rc_block_addr = addr;
    rc_block_end = addr_end;
    rc_counts = Array.copy mf.mf_counts;
    rc_edges = Hashtbl.copy mf.mf_edges;
    rc_instr_count = Ir.func_instr_count f;
    rc_instr_addrs = [||] }

type result = {
  binary : Binary.t;
  funcs_reordered : int;
  edges_mapped : int;
  edges_total : int;
}

(* Recompile [program] with the degraded profile: block reordering within
   hot functions, C3 function order (hot first, rest in source order). *)
let run ?(config = default_config) ~(program : Ir.program) ~(binary : Binary.t)
    ~(profile : Ocolos_profiler.Profile.t) ~name () =
  let mapped = map_profile config program binary profile in
  let hot =
    Array.to_list program.Ir.funcs
    |> List.filter (fun (f : Ir.func) -> mapped.(f.Ir.fid).mf_records >= config.hot_threshold)
    |> List.map (fun (f : Ir.func) -> f.Ir.fid)
  in
  let hot_set = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace hot_set f ()) hot;
  (* Per-function block order from the degraded counts. Functions whose
     mapped edge coverage is too thin keep their source order (a real
     compiler refuses to act on unannotated CFGs), and surviving chains are
     concatenated in source order rather than by density — both defenses
     against the mapping loss. *)
  let block_order = Hashtbl.create 64 in
  List.iter
    (fun fid ->
      let f = program.Ir.funcs.(fid) in
      let nblocks = Array.length f.Ir.blocks in
      let coverage =
        float_of_int (Hashtbl.length mapped.(fid).mf_edges) /. float_of_int (max 1 nblocks)
      in
      if coverage >= 0.3 then begin
        let rc = pseudo_reconstruction f mapped.(fid) in
        let hot_order, cold =
          Ocolos_bolt.Bb_reorder.layout_func ~split:false ~chain_order:`Source rc
        in
        Hashtbl.replace block_order fid (hot_order @ cold)
      end)
    hot;
  (* Function order: C3 over the (slightly degraded) call graph. *)
  let edge_weight = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (caller, callee) w ->
      if
        Hashtbl.mem hot_set caller && Hashtbl.mem hot_set callee
        && unit_hash ((caller * 31) + callee) >= config.call_drop_prob
      then Hashtbl.replace edge_weight (caller, callee) w)
    profile.Ocolos_profiler.Profile.calls;
  let graph =
    { Ocolos_bolt.Func_reorder.nodes = hot;
      edge_weight;
      node_size = (fun fid -> Ir.func_instr_count program.Ir.funcs.(fid) * 4);
      node_heat = (fun fid -> mapped.(fid).mf_records) }
  in
  let hot_order = Ocolos_bolt.Func_reorder.c3 graph in
  let cold_order =
    Array.to_list program.Ir.funcs
    |> List.filter_map (fun (f : Ir.func) ->
           if Hashtbl.mem hot_set f.Ir.fid then None else Some f.Ir.fid)
  in
  let layout =
    List.map
      (fun fid ->
        let order =
          match Hashtbl.find_opt block_order fid with
          | Some o -> o
          | None ->
            List.init (Array.length program.Ir.funcs.(fid).Ir.blocks) (fun i -> i)
        in
        { Layout.fid; hot = order; cold = [] })
      (hot_order @ cold_order)
  in
  let emitted = Emit.emit ~name program layout in
  let edges_total = Hashtbl.length profile.Ocolos_profiler.Profile.branches in
  let edges_mapped =
    Array.fold_left (fun acc mf -> acc + Hashtbl.length mf.mf_edges) 0 mapped
  in
  { binary = emitted.Emit.binary;
    funcs_reordered = List.length hot;
    edges_mapped;
    edges_total }
