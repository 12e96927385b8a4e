(* The BOLT pipeline: profile + binary -> optimized binary.

   Mirrors the real tool's structure (paper Section II-D): select hot
   functions from the profile, reconstruct their CFGs from machine code,
   reorder basic blocks (hot/cold splitting optional), reorder functions
   (C3 by default), and emit the optimized code into a new .text section at
   higher addresses while the original code remains in place as
   bolt.org.text. Cold functions are untouched apart from the symbol-table
   merge. *)

open Ocolos_isa
open Ocolos_binary
open Ocolos_profiler

type func_order = C3 | Pettis_hansen | Original_order

type config = {
  reorder_blocks : bool;
  split_functions : bool;
  func_order : func_order;
  hot_threshold : int; (* min LBR records for a function to be optimized *)
  max_hot_funcs : int option;
  peephole : bool;
  exclude : int list; (* fids never optimized (supervisor quarantine) *)
  exact_frame_maps : bool;
      (* instruction-granular OSR maps; off = block boundaries only, so
         every mid-block pointer migrates through a compensation stub *)
  lite : bool;
      (* true: emit only profiled-hot functions (the rest keep their old
         text, as in BOLT -lite). false: also re-emit every cold and
         never-executed function, so the new image is complete and the
         whole old text can be retired (-use-old-text=false analog) *)
}

let default_config =
  { reorder_blocks = true;
    split_functions = true;
    func_order = C3;
    hot_threshold = 8;
    max_hot_funcs = None;
    peephole = true;
    exclude = [];
    exact_frame_maps = true;
    lite = true }

type result = {
  merged : Binary.t; (* original + optimized sections: the BOLTed binary *)
  new_text : Binary.t; (* only the optimized section (what OCOLOS injects) *)
  translation : (int * int) list; (* old entry -> new entry, optimized funcs *)
  hot_fids : int list;
  funcs_reordered : int;
  work_instrs : int; (* volume processed, for the cost model *)
  skipped : int; (* functions whose reconstruction was refused *)
  failed : (int * string) list; (* (fid, fault point) degraded per-function *)
  bolt_base : int;
  frame_maps : (int * Frame_map.t) list; (* fid -> OSR map into new_text *)
}

let align_up n a = (n + a - 1) / a * a

let sections_end (binary : Binary.t) =
  List.fold_left
    (fun acc (s : Binary.section) -> max acc (s.Binary.sec_base + s.Binary.sec_size))
    0 binary.Binary.sections

(* First data address above everything the binary initializes: a fresh
   region for the optimized code's jump tables. *)
let fresh_data_base (binary : Binary.t) =
  let m = binary.Binary.globals_base + binary.Binary.globals_words in
  let m =
    Array.fold_left
      (fun acc vt -> max acc (vt.Binary.vt_addr + Array.length vt.Binary.vt_entries))
      m binary.Binary.vtables
  in
  let m = List.fold_left (fun acc (a, _) -> max acc (a + 1)) m binary.Binary.global_init in
  align_up m 0x1000

(* Partition the profile's branch and range records by owning function. *)
let partition_profile (binary : Binary.t) (profile : Profile.t) =
  let index = Binary.build_addr_index binary in
  let branches : (int, (int * int * int) list) Hashtbl.t = Hashtbl.create 256 in
  let ranges : (int, (int * int * int) list) Hashtbl.t = Hashtbl.create 256 in
  let push tbl fid v =
    match Hashtbl.find_opt tbl fid with
    | Some l -> Hashtbl.replace tbl fid (v :: l)
    | None -> Hashtbl.add tbl fid [ v ]
  in
  Hashtbl.iter
    (fun (from_addr, to_addr) count ->
      match (Binary.index_lookup index from_addr, Binary.index_lookup index to_addr) with
      | Some f1, Some f2 when f1 = f2 -> push branches f1 (from_addr, to_addr, count)
      | _, _ -> ())
    profile.Profile.branches;
  Hashtbl.iter
    (fun (start_addr, end_addr) count ->
      match Binary.index_lookup index start_addr with
      | Some f -> push ranges f (start_addr, end_addr, count)
      | None -> ())
    profile.Profile.ranges;
  (branches, ranges)

let select_hot_funcs config (binary : Binary.t) (profile : Profile.t) =
  let eligible =
    Array.to_list binary.Binary.symbols
    |> List.filter_map (fun s ->
           let fid = s.Binary.fs_fid in
           if List.mem fid config.exclude then None
           else Some (fid, Profile.func_records profile fid))
  in
  let hot =
    List.filter (fun (_, records) -> records >= config.hot_threshold) eligible
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let hot = match config.max_hot_funcs with None -> hot | Some n -> List.filteri (fun i _ -> i < n) hot in
  let hot = List.map fst hot in
  if config.lite then hot
  else
    (* Non-lite: the emission must be complete, so cold and never-executed
       functions ride along after the hot set, in original order. *)
    hot
    @ (List.map fst eligible |> List.filter (fun fid -> not (List.mem fid hot)))

module Trace = Ocolos_obs.Trace
module Events = Ocolos_obs.Events

(* Bracket one optimization pass in the structured event log. A pass that
   raises (e.g. an injected [bolt.func_reorder] fault) still gets its end
   event, tagged with the error, before the exception propagates. *)
let logged_pass name f =
  Events.log "bolt.pass_start" ~fields:[ ("pass", Trace.S name) ];
  match f () with
  | r ->
    Events.log "bolt.pass_end" ~fields:[ ("pass", Trace.S name) ];
    r
  | exception e ->
    Events.log "bolt.pass_end"
      ~fields:[ ("pass", Trace.S name); ("error", Trace.S (Printexc.to_string e)) ];
    raise e

(* Per-function fault points of the bolt domain — [bolt.cfg],
   [bolt.bb_reorder] and [bolt.peephole] are cut once per hot function and
   absorb [Injected] as "skip this function" / "keep the unoptimized form"
   degradation (the partial-CFG contract: a pass failing on one function
   must not cost the rest of the layout). [bolt.func_reorder] is cut once
   per run and *raises*: a broken global order has no per-function
   fallback, so the supervisor drops a degradation tier instead. Every
   absorbed firing is attributed to its fid in [result.failed], which feeds
   the supervisor's quarantine. *)
let run ?(config = default_config) ?extern_entry ?fault ?cfg_of ~(binary : Binary.t)
    ~(profile : Profile.t) () =
  Trace.span "bolt.run" ~attrs:[ ("binary", Trace.S binary.Binary.name) ] @@ fun run_sp ->
  let cut name = match fault with None -> () | Some f -> Ocolos_util.Fault.cut f name in
  let extern_entry =
    match extern_entry with
    | Some f -> f
    | None -> fun fid -> Some binary.Binary.symbols.(fid).Binary.fs_entry
  in
  let hot_candidates = select_hot_funcs config binary profile in
  let branches_by_fid, ranges_by_fid = partition_profile binary profile in
  let skipped = ref 0 in
  let work_instrs = ref 0 in
  let failed = ref [] in
  let fail fid point = failed := (fid, point) :: !failed in
  (* Reconstruct, attach counts, peephole. *)
  let reconstructed =
    logged_pass "cfg" @@ fun () ->
    Trace.span "bolt.cfg" @@ fun sp ->
    let cfg_of = match cfg_of with Some f -> f | None -> Cfg.reconstructor binary in
    let r =
      List.filter_map
        (fun fid ->
          match
            cut "bolt.cfg";
            cfg_of fid
          with
          | rc ->
            Cfg.attach_profile rc
              ~branches:(Option.value ~default:[] (Hashtbl.find_opt branches_by_fid fid))
              ~ranges:(Option.value ~default:[] (Hashtbl.find_opt ranges_by_fid fid));
            work_instrs := !work_instrs + rc.Cfg.rc_instr_count;
            Some (fid, rc)
          | exception Cfg.Unsupported _ ->
            incr skipped;
            None
          | exception Ocolos_util.Fault.Injected (point, _) ->
            fail fid point;
            None)
        hot_candidates
    in
    Trace.set_attr sp "funcs" (Trace.I (List.length r));
    Trace.set_attr sp "skipped" (Trace.I !skipped);
    r
  in
  let hot_fids = List.map fst reconstructed in
  let hot_set = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace hot_set f ()) hot_fids;
  (* Per-function block layout. *)
  let block_layouts =
    logged_pass "bb_reorder" @@ fun () ->
    Trace.span "bolt.bb_reorder"
      ~attrs:[ ("split", Trace.B config.split_functions) ]
    @@ fun sp ->
    let layouts =
      List.map
        (fun (fid, rc) ->
          let original () = (List.init (Array.length rc.Cfg.rc_block_addr) (fun i -> i), []) in
          let hot_order, cold =
            if config.reorder_blocks then
              match
                cut "bolt.bb_reorder";
                Bb_reorder.layout_func ~split:config.split_functions rc
              with
              | layout -> layout
              | exception Ocolos_util.Fault.Injected (point, _) ->
                fail fid point;
                original ()
            else original ()
          in
          (fid, hot_order, cold))
        reconstructed
    in
    Trace.set_attr sp "cold_blocks"
      (Trace.I (List.fold_left (fun acc (_, _, cold) -> acc + List.length cold) 0 layouts));
    layouts
  in
  (* Function order over the hot set. *)
  let call_graph =
    let edge_weight = Hashtbl.create 256 in
    Hashtbl.iter
      (fun (caller, callee) w ->
        if Hashtbl.mem hot_set caller && Hashtbl.mem hot_set callee then
          Hashtbl.replace edge_weight (caller, callee) w)
      profile.Profile.calls;
    { Func_reorder.nodes = hot_fids;
      edge_weight;
      node_size = (fun fid -> Binary.sym_size binary.Binary.symbols.(fid));
      node_heat = (fun fid -> Profile.func_records profile fid) }
  in
  let func_order =
    logged_pass "func_reorder" @@ fun () ->
    Trace.span "bolt.func_reorder"
      ~attrs:
        [ ( "algorithm",
            Trace.S
              (match config.func_order with
              | C3 -> "c3"
              | Pettis_hansen -> "pettis_hansen"
              | Original_order -> "original") );
          ("nodes", Trace.I (List.length hot_fids)) ]
    @@ fun _ ->
    cut "bolt.func_reorder";
    match config.func_order with
    | C3 -> Func_reorder.c3 call_graph
    | Pettis_hansen -> Func_reorder.pettis_hansen call_graph
    | Original_order -> Func_reorder.original call_graph
  in
  (* Synthetic IR program: reconstructed bodies for hot functions, dummies
     elsewhere (they are never emitted, only resolved externally). *)
  let rc_by_fid = Hashtbl.create 64 in
  List.iter (fun (fid, rc) -> Hashtbl.replace rc_by_fid fid rc) reconstructed;
  let funcs =
    logged_pass "peephole" @@ fun () ->
    Trace.span "bolt.peephole" ~attrs:[ ("enabled", Trace.B config.peephole) ] @@ fun _ ->
    Array.init (Array.length binary.Binary.symbols) (fun fid ->
        match Hashtbl.find_opt rc_by_fid fid with
        | Some rc -> (
          let f = rc.Cfg.rc_func in
          if not config.peephole then f
          else
            match
              cut "bolt.peephole";
              fst (Peephole.run_func f)
            with
            | g -> g
            | exception Ocolos_util.Fault.Injected (point, _) ->
              fail fid point;
              f)
        | None ->
          { Ir.fid;
            fname = binary.Binary.symbols.(fid).Binary.fs_name;
            blocks = [| { Ir.bid = 0; body = []; term = Ir.Thalt } |] })
  in
  let entry_fid =
    let index = Binary.build_addr_index binary in
    Option.value ~default:0 (Binary.index_lookup index binary.Binary.entry)
  in
  let program =
    { Ir.funcs; vtables = [||]; entry_fid; globals_words = 0; global_init = [] }
  in
  let layout =
    List.map
      (fun fid ->
        let _, hot_order, cold = List.find (fun (f, _, _) -> f = fid) block_layouts in
        { Layout.fid; hot = hot_order; cold })
      func_order
  in
  let bolt_base = align_up (sections_end binary + 0x100000) 0x100000 in
  let table_base = fresh_data_base binary in
  let emitted =
    logged_pass "emit" @@ fun () ->
    Trace.span "bolt.emit" ~attrs:[ ("text_base", Trace.I bolt_base) ] @@ fun _ ->
    Emit.emit ~text_base:bolt_base ~globals_base:table_base ~extern_entry
      ~section_name:".text" ~emit_vtables:false ~name:(binary.Binary.name ^ ".bolt.text")
      program layout
  in
  let new_text = emitted.Emit.binary in
  work_instrs := !work_instrs + Binary.instr_count new_text;
  let translation =
    List.map
      (fun fid ->
        (binary.Binary.symbols.(fid).Binary.fs_entry, Hashtbl.find emitted.Emit.func_entry fid))
      hot_fids
  in
  (* Frame maps: per hot function, old-version PC -> new-version PC, built
     from the block-reorder pass's address mapping ([rc_block_addr] x
     [emitted.block_addr]) plus instruction-granular tracking over the raw
     old code and the emitted code. This is what makes the old text
     immediately collectable: live frames migrate through it instead of
     draining. *)
  let frame_maps =
    logged_pass "frame_map" @@ fun () ->
    Trace.span "bolt.frame_map" @@ fun sp ->
    let per_bid : (int * int, (int * Instr.t) list) Hashtbl.t = Hashtbl.create 256 in
    Array.iter
      (fun addr ->
        match Hashtbl.find_opt new_text.Binary.debug addr with
        | Some key ->
          let l = Option.value ~default:[] (Hashtbl.find_opt per_bid key) in
          Hashtbl.replace per_bid key ((addr, Hashtbl.find new_text.Binary.code addr) :: l)
        | None -> ())
      new_text.Binary.code_order;
    let trackers =
      if config.exact_frame_maps then Frame_map.default_trackers
      else [ Frame_map.block_boundary_tracker ]
    in
    let maps =
      List.filter_map
        (fun (fid, rc) ->
          match Hashtbl.find_opt emitted.Emit.func_entry fid with
          | None -> None
          | Some new_entry ->
            let blocks =
              Array.of_list
                (List.filter_map
                   (fun bid ->
                     match Hashtbl.find_opt emitted.Emit.block_addr (fid, bid) with
                     | Some ns ->
                       Some (bid, rc.Cfg.rc_block_addr.(bid), rc.Cfg.rc_block_end.(bid), ns)
                     | None -> None)
                   (List.init (Array.length rc.Cfg.rc_block_addr) (fun i -> i)))
            in
            let fm =
              Frame_map.build ~trackers ~fid
                ~old_entry:binary.Binary.symbols.(fid).Binary.fs_entry ~new_entry ~blocks
                ~read_old:(fun a -> Binary.find_instr binary a)
                ~new_instrs:(fun bid ->
                  Array.of_list
                    (List.rev (Option.value ~default:[] (Hashtbl.find_opt per_bid (fid, bid)))))
                ()
            in
            Some (fid, fm))
        reconstructed
    in
    Trace.set_attr sp "exact_points"
      (Trace.I (List.fold_left (fun acc (_, fm) -> acc + Frame_map.exact_points fm) 0 maps));
    maps
  in
  let translate = Hashtbl.create 64 in
  List.iter (fun (o, n) -> Hashtbl.replace translate o n) translation;
  let tr addr = match Hashtbl.find_opt translate addr with Some n -> n | None -> addr in
  (* Merge into the BOLTed binary image. *)
  let code = Hashtbl.copy binary.Binary.code in
  Hashtbl.iter (fun a i -> Hashtbl.replace code a i) new_text.Binary.code;
  let code_order =
    let all = Array.append binary.Binary.code_order new_text.Binary.code_order in
    Array.sort compare all;
    all
  in
  let symbols =
    Array.map
      (fun s ->
        if Hashtbl.mem rc_by_fid s.Binary.fs_fid then begin
          let ns = new_text.Binary.symbols.(
            (* new_text symbols are indexed densely by their position in its
               own symbol array; find by fid *)
            let rec find i =
              if new_text.Binary.symbols.(i).Binary.fs_fid = s.Binary.fs_fid then i
              else find (i + 1)
            in
            find 0)
          in
          { s with Binary.fs_entry = ns.Binary.fs_entry;
            fs_ranges = ns.Binary.fs_ranges @ s.Binary.fs_ranges }
        end
        else s)
      binary.Binary.symbols
  in
  let sections =
    List.map
      (fun (s : Binary.section) ->
        if s.Binary.sec_name = ".text" then { s with Binary.sec_name = "bolt.org.text" } else s)
      binary.Binary.sections
    @ new_text.Binary.sections
  in
  let vtables =
    Array.map
      (fun vt -> { vt with Binary.vt_entries = Array.map tr vt.Binary.vt_entries })
      binary.Binary.vtables
  in
  let debug = Hashtbl.copy binary.Binary.debug in
  Hashtbl.iter (fun a v -> Hashtbl.replace debug a v) new_text.Binary.debug;
  let merged =
    { Binary.name = binary.Binary.name ^ ".bolt";
      sections;
      code;
      code_order;
      symbols;
      vtables;
      globals_base = binary.Binary.globals_base;
      globals_words = binary.Binary.globals_words;
      global_init = binary.Binary.global_init @ new_text.Binary.global_init;
      entry = tr binary.Binary.entry;
      debug }
  in
  let failed = List.sort compare !failed in
  Trace.set_attr run_sp "funcs_reordered" (Trace.I (List.length hot_fids));
  Trace.set_attr run_sp "work_instrs" (Trace.I !work_instrs);
  Trace.set_attr run_sp "failed" (Trace.I (List.length failed));
  Ocolos_obs.Metrics.count "ocolos_bolt_runs_total" 1;
  Ocolos_obs.Metrics.count "ocolos_bolt_funcs_reordered_total" (List.length hot_fids);
  Ocolos_obs.Metrics.count "ocolos_bolt_func_failures_total" (List.length failed);
  { merged;
    new_text;
    translation;
    hot_fids;
    funcs_reordered = List.length hot_fids;
    work_instrs = !work_instrs;
    skipped = !skipped;
    failed;
    bolt_base;
    frame_maps }
