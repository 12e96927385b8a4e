(* Unit tests for the BOLT substrate: CFG reconstruction, profile
   attachment, block reordering, function reordering, peephole, and the
   full pipeline's structural invariants. *)

open Ocolos_isa
open Ocolos_binary
open Ocolos_workloads

let tiny_binary () =
  let w = Apps.tiny ~tx_limit:None () in
  (w, w.Workload.binary)

(* Reconstruction must partition each function's instructions exactly as the
   emitter's debug info says. *)
let test_reconstruction_matches_debug_info () =
  let _, b = tiny_binary () in
  Array.iter
    (fun (s : Binary.func_sym) ->
      let fid = s.Binary.fs_fid in
      let rc = Ocolos_bolt.Cfg.of_binary b fid in
      (* Every original instruction address of the function is covered by
         exactly one reconstructed block, and the debug fid matches. *)
      let n = Array.length rc.Ocolos_bolt.Cfg.rc_block_addr in
      Alcotest.(check bool) "has blocks" true (n > 0);
      List.iter
        (fun (addr, _) ->
          let covered = ref 0 in
          for bid = 0 to n - 1 do
            if
              addr >= rc.Ocolos_bolt.Cfg.rc_block_addr.(bid)
              && addr < rc.Ocolos_bolt.Cfg.rc_block_end.(bid)
            then incr covered
          done;
          Alcotest.(check int) (Printf.sprintf "addr 0x%x covered once" addr) 1 !covered;
          match Hashtbl.find_opt b.Binary.debug addr with
          | Some (dfid, _) -> Alcotest.(check int) "debug fid" fid dfid
          | None -> Alcotest.fail "missing debug info")
        (Binary.func_instrs b fid))
    b.Binary.symbols

(* Entry block is always bid 0 at the function entry address. *)
let test_reconstruction_entry_block () =
  let _, b = tiny_binary () in
  Array.iter
    (fun (s : Binary.func_sym) ->
      let rc = Ocolos_bolt.Cfg.of_binary b s.Binary.fs_fid in
      Alcotest.(check int) "entry addr" s.Binary.fs_entry rc.Ocolos_bolt.Cfg.rc_block_addr.(0))
    b.Binary.symbols

(* Re-emitting a reconstructed function under its reconstruction order must
   produce semantically equivalent code; checked by whole-program runs in
   the property tests, structurally here: block count and instruction
   count are preserved up to terminator re-encoding. *)
let test_reconstruction_roundtrip_counts () =
  let _, b = tiny_binary () in
  Array.iter
    (fun (s : Binary.func_sym) ->
      let rc = Ocolos_bolt.Cfg.of_binary b s.Binary.fs_fid in
      let ir_blocks = Array.length rc.Ocolos_bolt.Cfg.rc_func.Ir.blocks in
      Alcotest.(check int) "block arrays consistent" ir_blocks
        (Array.length rc.Ocolos_bolt.Cfg.rc_block_addr);
      Alcotest.(check bool) "instr count sane" true (rc.Ocolos_bolt.Cfg.rc_instr_count > 0);
      (* The decoded addresses, ascending, are exactly the binary's
         instructions inside the recovered blocks. *)
      let in_blocks a =
        let found = ref false in
        Array.iteri
          (fun bid s -> if a >= s && a < rc.Ocolos_bolt.Cfg.rc_block_end.(bid) then found := true)
          rc.Ocolos_bolt.Cfg.rc_block_addr;
        !found
      in
      Alcotest.(check (list int)) "decoded addresses"
        (List.filter in_blocks (Array.to_list b.Binary.code_order))
        (Array.to_list rc.Ocolos_bolt.Cfg.rc_instr_addrs))
    b.Binary.symbols

let test_jump_table_recovery () =
  (* Build a program with a real jump table (not lowered) and reconstruct. *)
  let f =
    { Ir.fid = 0;
      fname = "switchy";
      blocks =
        [| { Ir.bid = 0;
             body = [ Ir.Plain (Instr.Rand (2, 3)) ];
             term = Ir.Tjump_table (2, [| 1; 2; 3 |]) };
           { Ir.bid = 1; body = [ Ir.Plain (Instr.Movi (0, 1)) ]; term = Ir.Thalt };
           { Ir.bid = 2; body = [ Ir.Plain (Instr.Movi (0, 2)) ]; term = Ir.Thalt };
           { Ir.bid = 3; body = [ Ir.Plain (Instr.Movi (0, 3)) ]; term = Ir.Thalt } |] }
  in
  let p =
    { Ir.funcs = [| f |]; vtables = [||]; entry_fid = 0; globals_words = 2; global_init = [] }
  in
  let e = Emit.emit_default ~name:"jt" p in
  let rc = Ocolos_bolt.Cfg.of_binary e.Emit.binary 0 in
  let has_table =
    Array.exists
      (fun (blk : Ir.block) ->
        match blk.Ir.term with Ir.Tjump_table (_, ts) -> Array.length ts = 3 | _ -> false)
      rc.Ocolos_bolt.Cfg.rc_func.Ir.blocks
  in
  Alcotest.(check bool) "table recovered with 3 targets" true has_table

(* Reconstruction refuses code it cannot prove safe to rewrite. *)
let test_reconstruction_refuses_unknown_indirect_jump () =
  (* Hand-build an image with a bare JumpInd that doesn't match the
     jump-table idiom. *)
  let code = Hashtbl.create 4 in
  Hashtbl.replace code 0x100 (Instr.JumpInd 3);
  Alcotest.(check bool) "unsupported raised" true
    (match
       Ocolos_bolt.Cfg.reconstruct ~fid:0 ~entry:0x100
         ~read_code:(Hashtbl.find_opt code)
         ~read_data:(fun _ -> None)
         ~in_function:(fun a -> a >= 0x100 && a < 0x200)
         ~fid_of_entry:(fun _ -> None)
         ~fname:"weird"
     with
    | exception Ocolos_bolt.Cfg.Unsupported _ -> true
    | _ -> false)

let test_reconstruction_refuses_escaping_branch () =
  let code = Hashtbl.create 4 in
  Hashtbl.replace code 0x100 (Instr.Branch (Instr.Eq, 0, 0x900));
  Hashtbl.replace code 0x104 Instr.Ret;
  Alcotest.(check bool) "unsupported raised" true
    (match
       Ocolos_bolt.Cfg.reconstruct ~fid:0 ~entry:0x100
         ~read_code:(Hashtbl.find_opt code)
         ~read_data:(fun _ -> None)
         ~in_function:(fun a -> a >= 0x100 && a < 0x200)
         ~fid_of_entry:(fun _ -> None)
         ~fname:"escaper"
     with
    | exception Ocolos_bolt.Cfg.Unsupported _ -> true
    | _ -> false)

let test_reconstruction_block_splitting () =
  (* A backward branch into the middle of an already-decoded run forces a
     block split: body [A; B; branch->B]. *)
  let instrs =
    [ (0x100, Instr.Movi (0, 1)); (* A, 5 bytes *)
      (0x105, Instr.Movi (1, 2)); (* B, 5 bytes *)
      (0x10A, Instr.Branch (Instr.Eq, 0, 0x105));
      (0x10E, Instr.Ret) ]
  in
  let code = Hashtbl.create 8 in
  List.iter (fun (a, i) -> Hashtbl.replace code a i) instrs;
  let rc =
    Ocolos_bolt.Cfg.reconstruct ~fid:0 ~entry:0x100 ~read_code:(Hashtbl.find_opt code)
      ~read_data:(fun _ -> None)
      ~in_function:(fun a -> a >= 0x100 && a < 0x200)
      ~fid_of_entry:(fun _ -> None)
      ~fname:"split"
  in
  (* Blocks: [0x100..0x105) falls into [0x105..0x10E) which branches to
     itself or falls into [0x10E..0x10F). *)
  Alcotest.(check int) "three blocks" 3 (Array.length rc.Ocolos_bolt.Cfg.rc_block_addr);
  Alcotest.(check bool) "0x105 is a leader" true
    (Array.exists (fun a -> a = 0x105) rc.Ocolos_bolt.Cfg.rc_block_addr)

let test_attach_profile_counts () =
  let w, b = tiny_binary () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~binary:b ~input in
  let session = Ocolos_profiler.Perf.start proc in
  Ocolos_proc.Proc.run ~cycle_limit:200_000.0 proc;
  let samples = Ocolos_profiler.Perf.stop session in
  let profile = Ocolos_profiler.Perf2bolt.convert ~binary:b samples in
  (* The parser is hot: attaching its records must produce nonzero counts
     with flow structure (entry block covered). *)
  let pf = match w.Workload.gen.Gen.parser_fid with Some f -> f | None -> assert false in
  let rc = Ocolos_bolt.Cfg.of_binary b pf in
  let branches =
    Hashtbl.fold
      (fun (f, t) c acc ->
        match Binary.func_of_addr b f with
        | Some s when s.Binary.fs_fid = pf -> (f, t, c) :: acc
        | _ -> acc)
      profile.Ocolos_profiler.Profile.branches []
  in
  let ranges =
    Hashtbl.fold
      (fun (a, e) c acc ->
        match Binary.func_of_addr b a with
        | Some s when s.Binary.fs_fid = pf -> (a, e, c) :: acc
        | _ -> acc)
      profile.Ocolos_profiler.Profile.ranges []
  in
  Ocolos_bolt.Cfg.attach_profile rc ~branches ~ranges;
  Alcotest.(check bool) "entry covered" true (rc.Ocolos_bolt.Cfg.rc_counts.(0) > 0);
  Alcotest.(check bool) "edges attached" true
    (Hashtbl.length rc.Ocolos_bolt.Cfg.rc_edges > 0);
  Alcotest.(check bool) "total positive" true (Ocolos_bolt.Cfg.total_count rc > 0)

(* ExtTSP: making the heavy edge a fallthrough scores higher. *)
let test_ext_tsp_prefers_fallthrough () =
  let rc =
    { Ocolos_bolt.Cfg.rc_fid = 0;
      rc_func = { Ir.fid = 0; fname = "t"; blocks = [||] };
      rc_block_addr = [| 0; 30; 60 |];
      rc_block_end = [| 30; 60; 90 |];
      rc_counts = [| 100; 100; 5 |];
      rc_edges = Hashtbl.create 4;
      rc_instr_count = 10;
      rc_instr_addrs = [||] }
  in
  Hashtbl.replace rc.Ocolos_bolt.Cfg.rc_edges (0, 2) 5;
  Hashtbl.replace rc.Ocolos_bolt.Cfg.rc_edges (0, 1) 100;
  let good = Ocolos_bolt.Bb_reorder.ext_tsp_score rc [ 0; 1; 2 ] in
  let bad = Ocolos_bolt.Bb_reorder.ext_tsp_score rc [ 0; 2; 1 ] in
  Alcotest.(check bool) "hot fallthrough wins" true (good > bad)

let test_layout_func_chains_hot_edge () =
  (* Diamond where the taken side is hot: reorder places it as the
     fallthrough successor. *)
  let rc =
    { Ocolos_bolt.Cfg.rc_fid = 0;
      rc_func = { Ir.fid = 0; fname = "t"; blocks = [||] };
      rc_block_addr = [| 0; 30; 60; 90 |];
      rc_block_end = [| 30; 60; 90; 120 |];
      rc_counts = [| 100; 3; 97; 100 |];
      rc_edges = Hashtbl.create 8;
      rc_instr_count = 12;
      rc_instr_addrs = [||] }
  in
  List.iter
    (fun (e, c) -> Hashtbl.replace rc.Ocolos_bolt.Cfg.rc_edges e c)
    [ ((0, 2), 97); ((0, 1), 3); ((1, 3), 3); ((2, 3), 97) ];
  let hot, cold = Ocolos_bolt.Bb_reorder.layout_func ~split:false rc in
  Alcotest.(check (list int)) "no cold" [] cold;
  (* The hot chain 0-2-3 must appear contiguously. *)
  let rec contiguous = function
    | 0 :: 2 :: 3 :: _ -> true
    | _ :: tl -> contiguous tl
    | [] -> false
  in
  Alcotest.(check bool) (Fmt.str "chain 0-2-3 in %a" Fmt.(list ~sep:sp int) hot) true
    (contiguous hot);
  let new_score = Ocolos_bolt.Bb_reorder.ext_tsp_score rc hot in
  let old_score = Ocolos_bolt.Bb_reorder.ext_tsp_score rc [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "score improves" true (new_score > old_score)

let test_layout_func_splits_cold () =
  let rc =
    { Ocolos_bolt.Cfg.rc_fid = 0;
      rc_func = { Ir.fid = 0; fname = "t"; blocks = [||] };
      rc_block_addr = [| 0; 30; 60 |];
      rc_block_end = [| 30; 60; 90 |];
      rc_counts = [| 10; 0; 10 |];
      rc_edges = Hashtbl.create 4;
      rc_instr_count = 9;
      rc_instr_addrs = [||] }
  in
  Hashtbl.replace rc.Ocolos_bolt.Cfg.rc_edges (0, 2) 10;
  let hot, cold = Ocolos_bolt.Bb_reorder.layout_func ~split:true rc in
  Alcotest.(check (list int)) "block 1 split out" [ 1 ] cold;
  Alcotest.(check bool) "entry first" true (List.hd hot = 0)

let test_layout_func_no_profile_identity () =
  let rc =
    { Ocolos_bolt.Cfg.rc_fid = 0;
      rc_func = { Ir.fid = 0; fname = "t"; blocks = [||] };
      rc_block_addr = [| 0; 30 |];
      rc_block_end = [| 30; 60 |];
      rc_counts = [| 0; 0 |];
      rc_edges = Hashtbl.create 1;
      rc_instr_count = 4;
      rc_instr_addrs = [||] }
  in
  let hot, cold = Ocolos_bolt.Bb_reorder.layout_func rc in
  Alcotest.(check (list int)) "identity" [ 0; 1 ] hot;
  Alcotest.(check (list int)) "no cold" [] cold

let callgraph nodes edges sizes heats =
  let edge_weight = Hashtbl.create 8 in
  List.iter (fun (a, b, w) -> Hashtbl.replace edge_weight (a, b) w) edges;
  { Ocolos_bolt.Func_reorder.nodes;
    edge_weight;
    node_size = (fun f -> List.assoc f sizes);
    node_heat = (fun f -> List.assoc f heats) }

let index_of x l =
  let rec go i = function
    | [] -> -1
    | y :: tl -> if x = y then i else go (i + 1) tl
  in
  go 0 l

let test_c3_places_caller_before_callee () =
  (* A calls B heavily; B never calls A: C3 puts A before B. *)
  let g =
    callgraph [ 0; 1; 2 ]
      [ (0, 1, 100); (2, 0, 1) ]
      [ (0, 100); (1, 100); (2, 100) ]
      [ (0, 50); (1, 100); (2, 5) ]
  in
  let order = Ocolos_bolt.Func_reorder.c3 g in
  Alcotest.(check int) "all nodes" 3 (List.length order);
  Alcotest.(check bool) "caller before callee" true (index_of 0 order < index_of 1 order)

let test_c3_respects_size_cap () =
  let g =
    callgraph [ 0; 1 ] [ (0, 1, 100) ] [ (0, 10); (1, 10) ] [ (0, 5); (1, 10) ]
  in
  let order = Ocolos_bolt.Func_reorder.c3 ~max_cluster_bytes:15 g in
  (* Merge refused: both still present, in some order. *)
  Alcotest.(check int) "both present" 2 (List.length order)

let test_pettis_hansen_adjacency () =
  let g =
    callgraph [ 0; 1; 2; 3 ]
      [ (0, 1, 100); (2, 3, 90); (1, 2, 1) ]
      [ (0, 10); (1, 10); (2, 10); (3, 10) ]
      [ (0, 10); (1, 10); (2, 10); (3, 10) ]
  in
  let order = Ocolos_bolt.Func_reorder.pettis_hansen g in
  Alcotest.(check int) "all nodes" 4 (List.length order);
  Alcotest.(check int) "0 and 1 adjacent" 1 (abs (index_of 0 order - index_of 1 order));
  Alcotest.(check int) "2 and 3 adjacent" 1 (abs (index_of 2 order - index_of 3 order))

let test_func_reorder_permutations () =
  (* All three algorithms return permutations of the node set. *)
  let g =
    callgraph [ 3; 1; 4; 1 + 1; 0 ]
      [ (3, 1, 5); (4, 2, 2); (0, 3, 9) ]
      [ (0, 8); (1, 8); (2, 8); (3, 8); (4, 8) ]
      [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ]
  in
  List.iter
    (fun order ->
      Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3; 4 ] (List.sort compare order))
    [ Ocolos_bolt.Func_reorder.c3 g;
      Ocolos_bolt.Func_reorder.pettis_hansen g;
      Ocolos_bolt.Func_reorder.original g ]

let test_peephole () =
  let f =
    { Ir.fid = 0;
      fname = "noppy";
      blocks =
        [| { Ir.bid = 0;
             body =
               [ Ir.Plain Instr.Nop;
                 Ir.Plain (Instr.Alui (Instr.Add, 3, 3, 0));
                 Ir.Plain (Instr.Alui (Instr.Mul, 4, 4, 1));
                 Ir.Plain (Instr.Movi (1, 5));
                 Ir.Plain (Instr.Alui (Instr.Add, 3, 4, 0)) ];
             term = Ir.Tret } |] }
  in
  let cleaned, removed = Ocolos_bolt.Peephole.run_func f in
  Alcotest.(check int) "three no-ops removed" 3 removed;
  Alcotest.(check int) "two instrs left" 2 (List.length cleaned.Ir.blocks.(0).Ir.body)

let test_full_pipeline_invariants () =
  let w, b = tiny_binary () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~binary:b ~input in
  let session = Ocolos_profiler.Perf.start proc in
  Ocolos_proc.Proc.run ~cycle_limit:200_000.0 proc;
  let samples = Ocolos_profiler.Perf.stop session in
  let profile = Ocolos_profiler.Perf2bolt.convert ~binary:b samples in
  let r = Ocolos_bolt.Bolt.run ~binary:b ~profile () in
  let m = r.Ocolos_bolt.Bolt.merged in
  (* Original code preserved at original addresses (design principle #1). *)
  Array.iter
    (fun addr ->
      Alcotest.(check bool) "original instr intact" true
        (Binary.find_instr m addr = Binary.find_instr b addr))
    b.Binary.code_order;
  (* Section renaming: bolt.org.text + new .text at a higher base. *)
  Alcotest.(check bool) "bolt.org.text" true (Binary.section_named m "bolt.org.text" <> None);
  (match Binary.section_named m ".text" with
  | Some s -> Alcotest.(check bool) "new text above" true (s.Binary.sec_base >= r.Ocolos_bolt.Bolt.bolt_base)
  | None -> Alcotest.fail "missing new .text");
  (* Translation maps old entries to addresses inside the new section. *)
  List.iter
    (fun (old_e, new_e) ->
      Alcotest.(check bool) "old entry was an entry" true
        (Array.exists (fun s -> s.Binary.fs_entry = new_e) m.Binary.symbols);
      Alcotest.(check bool) "new addr in new text" true (new_e >= r.Ocolos_bolt.Bolt.bolt_base);
      Alcotest.(check bool) "old below" true (old_e < r.Ocolos_bolt.Bolt.bolt_base))
    r.Ocolos_bolt.Bolt.translation;
  (* V-tables rewritten to optimized entries where applicable. *)
  let tr = Hashtbl.create 16 in
  List.iter (fun (o, n) -> Hashtbl.replace tr o n) r.Ocolos_bolt.Bolt.translation;
  Array.iteri
    (fun vid vt ->
      Array.iteri
        (fun slot entry ->
          let old_entry = b.Binary.vtables.(vid).Binary.vt_entries.(slot) in
          let expected = match Hashtbl.find_opt tr old_entry with Some n -> n | None -> old_entry in
          Alcotest.(check int) "vt entry translated" expected entry)
        vt.Binary.vt_entries)
    m.Binary.vtables;
  Alcotest.(check bool) "hot funcs found" true (r.Ocolos_bolt.Bolt.funcs_reordered > 0);
  Alcotest.(check bool) "work accounted" true (r.Ocolos_bolt.Bolt.work_instrs > 0)

let test_bolt_handles_bolted_binary () =
  (* Our BOLT accepts BOLTed binaries (the LLVM-BOLT limitation the paper
     works around is absent): run the pipeline twice. *)
  let w, b = tiny_binary () in
  let input = Workload.find_input w "a" in
  let run_profile binary =
    let proc = Workload.launch w ~binary ~input in
    let session = Ocolos_profiler.Perf.start proc in
    Ocolos_proc.Proc.run ~cycle_limit:200_000.0 proc;
    Ocolos_profiler.Perf2bolt.convert ~binary (Ocolos_profiler.Perf.stop session)
  in
  let r1 = Ocolos_bolt.Bolt.run ~binary:b ~profile:(run_profile b) () in
  let b1 = r1.Ocolos_bolt.Bolt.merged in
  let r2 = Ocolos_bolt.Bolt.run ~binary:b1 ~profile:(run_profile b1) () in
  Alcotest.(check bool) "second round optimizes" true (r2.Ocolos_bolt.Bolt.funcs_reordered > 0);
  Alcotest.(check bool) "second base higher" true
    (r2.Ocolos_bolt.Bolt.bolt_base > r1.Ocolos_bolt.Bolt.bolt_base)

let suite =
  [ Alcotest.test_case "reconstruction matches debug info" `Quick
      test_reconstruction_matches_debug_info;
    Alcotest.test_case "reconstruction refuses unknown indirect jump" `Quick
      test_reconstruction_refuses_unknown_indirect_jump;
    Alcotest.test_case "reconstruction refuses escaping branch" `Quick
      test_reconstruction_refuses_escaping_branch;
    Alcotest.test_case "reconstruction splits blocks" `Quick
      test_reconstruction_block_splitting;
    Alcotest.test_case "reconstruction entry block" `Quick test_reconstruction_entry_block;
    Alcotest.test_case "reconstruction roundtrip counts" `Quick
      test_reconstruction_roundtrip_counts;
    Alcotest.test_case "jump table recovery" `Quick test_jump_table_recovery;
    Alcotest.test_case "attach profile counts" `Quick test_attach_profile_counts;
    Alcotest.test_case "ext-tsp prefers fallthrough" `Quick test_ext_tsp_prefers_fallthrough;
    Alcotest.test_case "layout chains hot edge" `Quick test_layout_func_chains_hot_edge;
    Alcotest.test_case "layout splits cold" `Quick test_layout_func_splits_cold;
    Alcotest.test_case "layout identity without profile" `Quick
      test_layout_func_no_profile_identity;
    Alcotest.test_case "c3 caller before callee" `Quick test_c3_places_caller_before_callee;
    Alcotest.test_case "c3 size cap" `Quick test_c3_respects_size_cap;
    Alcotest.test_case "pettis-hansen adjacency" `Quick test_pettis_hansen_adjacency;
    Alcotest.test_case "reorders are permutations" `Quick test_func_reorder_permutations;
    Alcotest.test_case "peephole" `Quick test_peephole;
    Alcotest.test_case "full pipeline invariants" `Quick test_full_pipeline_invariants;
    Alcotest.test_case "bolt on bolted binary" `Quick test_bolt_handles_bolted_binary ]
