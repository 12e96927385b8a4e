(* Tests for OCOLOS itself: attach, replacement mechanics, the
   function-pointer invariant, stack-live patching, continuous optimization
   and garbage collection. *)

open Ocolos_workloads
module O = Ocolos_core.Ocolos

let setup ?(tx_limit = None) ?(input = "a") () =
  let w = Apps.tiny ~tx_limit () in
  let inp = Workload.find_input w input in
  let proc = Workload.launch w ~input:inp in
  (w, proc)

let optimize_once ?(profile_cycles = 150_000.0) proc oc =
  O.start_profiling oc;
  let from = Ocolos_proc.Proc.max_cycles proc in
  Ocolos_proc.Proc.run ~cycle_limit:(from +. profile_cycles) proc;
  let profile, _ = O.stop_profiling oc in
  let result, _ = O.run_bolt oc profile in
  (result, O.replace_code oc result)

let test_attach_parses_sites () =
  let w, proc = setup () in
  let oc = O.attach proc in
  ignore oc;
  (* fp hook installed *)
  Alcotest.(check bool) "fp hook installed" true
    (proc.Ocolos_proc.Proc.hooks.translate_fp <> None);
  Alcotest.(check int) "version 0" 0 (O.version oc);
  Alcotest.(check bool) "current = original" true (O.current_binary oc == w.Workload.binary)

let test_replacement_patches_vtables () =
  let w, proc = setup () in
  let oc = O.attach proc in
  Ocolos_proc.Proc.run ~cycle_limit:50_000.0 proc;
  let result, stats = optimize_once proc oc in
  Alcotest.(check int) "version 1" 1 stats.O.version;
  Alcotest.(check bool) "vtables patched" true (stats.O.vtable_entries_patched > 0);
  Alcotest.(check bool) "pause modeled" true (stats.O.pause_seconds > 0.0);
  (* Patched v-table slots point into the injected region. *)
  let base = result.Ocolos_bolt.Bolt.bolt_base in
  let hot = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace hot f ()) result.Ocolos_bolt.Bolt.hot_fids;
  Array.iteri
    (fun vid vt ->
      Array.iteri
        (fun slot fid_entry ->
          ignore fid_entry;
          let addr =
            Ocolos_proc.Addr_space.vtable_base proc.Ocolos_proc.Proc.mem vid + slot
          in
          let v = Ocolos_proc.Addr_space.read_data proc.Ocolos_proc.Proc.mem addr in
          let fid =
            (* slot order = original vtable fid *)
            w.Workload.program.Ocolos_isa.Ir.vtables.(vid).(slot)
          in
          if Hashtbl.mem hot fid then
            Alcotest.(check bool) "hot slot points to C1" true (v >= base)
          else Alcotest.(check bool) "cold slot stays C0" true (v < base))
        vt.Ocolos_binary.Binary.vt_entries)
    w.Workload.binary.Ocolos_binary.Binary.vtables

let test_fp_invariant () =
  (* After replacement, every function pointer created by the program must
     resolve to the function's live entry: with true OSR there is no pinned
     C0 version for pointers to lean on, so the creation hook has to track
     the resident text. *)
  let _, proc = setup () in
  let oc = O.attach proc in
  Ocolos_proc.Proc.run ~cycle_limit:50_000.0 proc;
  let _ = optimize_once proc oc in
  (* Observe fp creations while running optimized code. *)
  let created = ref [] in
  let inner = proc.Ocolos_proc.Proc.hooks.translate_fp in
  proc.Ocolos_proc.Proc.hooks.translate_fp <-
    Some
      (fun addr ->
        let v = match inner with Some f -> f addr | None -> addr in
        created := v :: !created;
        v);
  let from = Ocolos_proc.Proc.max_cycles proc in
  Ocolos_proc.Proc.run ~cycle_limit:(from +. 100_000.0) proc;
  Alcotest.(check bool) "some fps created" true (List.length !created > 0);
  let live_entries = Hashtbl.create 64 in
  Array.iter
    (fun (s : Ocolos_binary.Binary.func_sym) ->
      Hashtbl.replace live_entries s.Ocolos_binary.Binary.fs_entry ())
    (O.current_binary oc).Ocolos_binary.Binary.symbols;
  List.iter
    (fun v ->
      Alcotest.(check bool) "fp is a live entry" true (Hashtbl.mem live_entries v);
      Alcotest.(check bool) "fp points at mapped code" true
        (Ocolos_proc.Addr_space.read_code proc.Ocolos_proc.Proc.mem v <> None))
    !created

let test_stack_live_detection () =
  let _, proc = setup () in
  let oc = O.attach proc in
  Ocolos_proc.Proc.run ~cycle_limit:50_000.0 proc;
  let live = O.stack_live_fids oc in
  Alcotest.(check bool) "something live" true (Hashtbl.length live > 0);
  (* The main loop is always on every thread's stack (it is the PC owner or
     caller of everything). *)
  let w_main =
    (* entry function fid resolves from the binary entry *)
    match
      Ocolos_binary.Binary.func_of_addr proc.Ocolos_proc.Proc.binary
        proc.Ocolos_proc.Proc.binary.Ocolos_binary.Binary.entry
    with
    | Some s -> s.Ocolos_binary.Binary.fs_fid
    | None -> -1
  in
  Alcotest.(check bool) "main live" true (Hashtbl.mem live w_main)

let test_patch_all_ablation_patches_more () =
  let run_with patch_all =
    let _, proc = setup () in
    let config = { O.default_config with O.patch_all_direct_calls = patch_all } in
    let oc = O.attach ~config proc in
    Ocolos_proc.Proc.run ~cycle_limit:50_000.0 proc;
    let _, stats = optimize_once proc oc in
    stats.O.call_sites_patched
  in
  let live_only = run_with false and all = run_with true in
  (* Under true OSR any site still targeting retired text is force-patched
     in both modes (nothing may reference doomed code), so the ablation can
     only add sites in cold functions whose targets survived. *)
  Alcotest.(check bool)
    (Printf.sprintf "all (%d) >= stack-live (%d)" all live_only)
    true (all >= live_only);
  Alcotest.(check bool) "some sites patched" true (live_only > 0)

let test_semantics_preserved_under_replacement () =
  let w = Apps.tiny ~tx_limit:(Some 250) () in
  let input = Workload.find_input w "b" in
  let reference =
    let proc = Workload.launch w ~input in
    Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:50_000_000 proc;
    Workload.checksums proc
  in
  let proc = Workload.launch w ~input in
  let oc = O.attach proc in
  Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:40_000 proc;
  O.start_profiling oc;
  Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  let profile, _ = O.stop_profiling oc in
  let result, _ = O.run_bolt oc profile in
  ignore (O.replace_code oc result);
  Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:50_000_000 proc;
  Alcotest.(check (list int)) "checksums equal" reference (Workload.checksums proc)

let test_continuous_gc_frees_old_version () =
  let _, proc = setup () in
  let oc = O.attach proc in
  Ocolos_proc.Proc.run ~cycle_limit:50_000.0 proc;
  let r1, s1 = optimize_once proc oc in
  (* True OSR retires the C0 text of re-emitted functions in the very first
     round — no pinned original version survives a replacement. *)
  Alcotest.(check bool) "round 1 frees retired C0 text" true (s1.O.gc_bytes_freed > 0);
  let from = Ocolos_proc.Proc.max_cycles proc in
  Ocolos_proc.Proc.run ~cycle_limit:(from +. 100_000.0) proc;
  let r2, s2 = optimize_once proc oc in
  Alcotest.(check int) "version 2" 2 s2.O.version;
  Alcotest.(check bool) "old version freed" true (s2.O.gc_bytes_freed > 0);
  (* Every C1 range of a function re-optimized in round 2 must be unmapped
     (functions BOLT skipped in round 2 legitimately keep their C1 text). *)
  let re = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace re f ()) r2.Ocolos_bolt.Bolt.hot_fids;
  Ocolos_util.Codemap.iter
    (fun addr _ ->
      match Ocolos_binary.Binary.func_of_addr r1.Ocolos_bolt.Bolt.new_text addr with
      | Some s when Hashtbl.mem re s.Ocolos_binary.Binary.fs_fid ->
        Alcotest.(check bool) "re-optimized C1 unmapped" true
          (Ocolos_proc.Addr_space.read_code proc.Ocolos_proc.Proc.mem addr = None)
      | Some _ | None -> ())
    r1.Ocolos_bolt.Bolt.new_text.Ocolos_binary.Binary.code;
  (* And the process still runs. *)
  let tx_before = Ocolos_proc.Proc.transactions proc in
  let from = Ocolos_proc.Proc.max_cycles proc in
  Ocolos_proc.Proc.run ~cycle_limit:(from +. 100_000.0) proc;
  Alcotest.(check bool) "still making progress" true
    (Ocolos_proc.Proc.transactions proc > tx_before)

let test_continuous_copies_stack_live () =
  let _, proc = setup () in
  let oc = O.attach proc in
  Ocolos_proc.Proc.run ~cycle_limit:50_000.0 proc;
  ignore (optimize_once proc oc);
  let from = Ocolos_proc.Proc.max_cycles proc in
  Ocolos_proc.Proc.run ~cycle_limit:(from +. 100_000.0) proc;
  let _, s2 = optimize_once proc oc in
  (* Threads were executing C1 when paused, so their frames were migrated
     into C2 through the frame maps (not evacuated by copy). *)
  Alcotest.(check bool) "migrated stack-live frames" true (s2.O.frames_migrated > 0);
  (* Every thread PC must point at mapped code afterwards. *)
  Array.iter
    (fun (t : Ocolos_proc.Thread.t) ->
      Alcotest.(check bool) "pc mapped" true
        (Ocolos_proc.Addr_space.read_code proc.Ocolos_proc.Proc.mem t.Ocolos_proc.Thread.pc
        <> None))
    proc.Ocolos_proc.Proc.threads

let test_semantics_preserved_continuous () =
  let w = Apps.tiny ~tx_limit:(Some 400) () in
  let input = Workload.find_input w "a" in
  let reference =
    let proc = Workload.launch w ~input in
    Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:100_000_000 proc;
    Workload.checksums proc
  in
  let proc = Workload.launch w ~input in
  let oc = O.attach proc in
  (* Three replacement rounds interleaved with execution. *)
  for _ = 1 to 3 do
    O.start_profiling oc;
    Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
    let profile, _ = O.stop_profiling oc in
    let result, _ = O.run_bolt oc profile in
    ignore (O.replace_code oc result)
  done;
  Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:100_000_000 proc;
  Alcotest.(check (list int)) "checksums equal after 3 rounds" reference
    (Workload.checksums proc)

let test_verify_gc_runs_clean () =
  (* The post-GC scan runs after every round that retires text: reaching
     here without a Dangling_pointer exception across three rounds is
     itself the check. *)
  let _, proc = setup () in
  let oc = O.attach proc in
  Ocolos_proc.Proc.run ~cycle_limit:40_000.0 proc;
  for _ = 1 to 3 do
    let from = Ocolos_proc.Proc.max_cycles proc in
    Ocolos_proc.Proc.run ~cycle_limit:(from +. 60_000.0) proc;
    ignore (optimize_once proc oc)
  done

let test_replacement_stats_shape () =
  let _, proc = setup () in
  let oc = O.attach proc in
  Ocolos_proc.Proc.run ~cycle_limit:50_000.0 proc;
  let result, stats = optimize_once proc oc in
  Alcotest.(check int) "funcs optimized consistent"
    (List.length result.Ocolos_bolt.Bolt.hot_fids)
    stats.O.funcs_optimized;
  Alcotest.(check bool) "bytes injected" true (stats.O.code_bytes_injected > 0);
  Alcotest.(check bool) "stack live counted" true (stats.O.stack_live_funcs > 0)

(* The paper requires -fno-jump-tables for OCOLOS target binaries because
   LLVM-BOLT cannot update the jump-table constants it injects. Our BOLT
   substrate recovers jump tables from the data image and re-emits them with
   fresh table data, so OCOLOS here handles jump-table binaries too — a
   limitation the paper calls non-fundamental, lifted and tested. *)
let test_jump_table_binary_replacement () =
  let base = Apps.tiny ~tx_limit:(Some 200) () in
  let w =
    Workload.build ~no_jump_tables:false ~name:"tiny-jt" ~inputs:base.Workload.inputs
      ~nthreads:2 base.Workload.gen
  in
  Alcotest.(check bool) "binary really has jump tables" true
    (Ocolos_util.Codemap.fold
       (fun _ i found ->
         found || match i with Ocolos_isa.Instr.JumpInd _ -> true | _ -> false)
       w.Workload.binary.Ocolos_binary.Binary.code false);
  let input = Workload.find_input w "a" in
  let reference =
    let proc = Workload.launch w ~input in
    Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:50_000_000 proc;
    Workload.checksums proc
  in
  let proc = Workload.launch w ~input in
  let oc = O.attach proc in
  O.start_profiling oc;
  Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:80_000 proc;
  let profile, _ = O.stop_profiling oc in
  let result, _ = O.run_bolt oc profile in
  let stats = O.replace_code oc result in
  Alcotest.(check bool) "optimized something" true (stats.O.funcs_optimized > 0);
  Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:50_000_000 proc;
  Alcotest.(check (list int)) "jump-table semantics preserved" reference
    (Workload.checksums proc)

let test_cost_model () =
  let c = Ocolos_core.Cost.default in
  Alcotest.(check bool) "perf2bolt monotone" true
    (Ocolos_core.Cost.perf2bolt_seconds c ~records:2000
    > Ocolos_core.Cost.perf2bolt_seconds c ~records:1000);
  Alcotest.(check bool) "pause has floor" true
    (Ocolos_core.Cost.pause_seconds c ~sites:0 ~bytes:0 > 0.0);
  Alcotest.(check bool) "bolt scales" true
    (Ocolos_core.Cost.bolt_seconds c ~work_instrs:0 = 0.0)

let suite =
  [ Alcotest.test_case "attach" `Quick test_attach_parses_sites;
    Alcotest.test_case "replacement patches vtables" `Quick test_replacement_patches_vtables;
    Alcotest.test_case "fp invariant" `Quick test_fp_invariant;
    Alcotest.test_case "stack-live detection" `Quick test_stack_live_detection;
    Alcotest.test_case "patch-all ablation" `Quick test_patch_all_ablation_patches_more;
    Alcotest.test_case "semantics preserved" `Quick test_semantics_preserved_under_replacement;
    Alcotest.test_case "continuous GC frees old" `Quick test_continuous_gc_frees_old_version;
    Alcotest.test_case "continuous OSR migrates stack-live" `Quick
      test_continuous_copies_stack_live;
    Alcotest.test_case "semantics preserved (continuous)" `Quick
      test_semantics_preserved_continuous;
    Alcotest.test_case "verify-gc clean over 3 rounds" `Quick test_verify_gc_runs_clean;
    Alcotest.test_case "replacement stats shape" `Quick test_replacement_stats_shape;
    Alcotest.test_case "jump-table binary replacement" `Slow test_jump_table_binary_replacement;
    Alcotest.test_case "cost model" `Quick test_cost_model ]
