(* True on-stack replacement acceptance tests: a never-returning entry
   function migrated out of its original text, the post-GC reachability
   scanner covering engine-held code pointers, revert leaving no
   ever-growing residue, revert to a version other than C0, revert taking
   no fault cuts, drain-window accounting converging to zero, text kept in
   place and re-injected by a revert, revert as a semantic no-op, one
   snapshot backing two reverts, a revert to C0 on the mysql analog, a
   sorted symbol index resolving every live range after each revert and
   drain and after a commit through compensation stubs, a frozen fp
   resolver outliving later transitions, and a re-attached controller
   finding the live entries. *)

open Ocolos_workloads
module O = Ocolos_core.Ocolos
module Proc = Ocolos_proc.Proc
module Addr_space = Ocolos_proc.Addr_space
module Osr = Ocolos_core.Osr

(* Complete emission: hot_threshold 1 optimizes anything that moved, and
   lite=false re-emits even never-executed functions, so a campaign can
   retire the entire original text. *)
let greedy_config =
  { O.default_config with
    O.bolt =
      { O.default_config.O.bolt with
        Ocolos_bolt.Bolt.hot_threshold = 1;
        max_hot_funcs = None;
        lite = false } }

let optimize_once ?(engine = `Blocks) ?(profile_instrs = 300_000) proc oc =
  O.start_profiling oc;
  Proc.run ~engine ~cycle_limit:infinity ~max_instrs:profile_instrs proc;
  let profile, _ = O.stop_profiling oc in
  let result, _ = O.run_bolt oc profile in
  (result, O.replace_code oc result)

let mapped_code_bytes (proc : Proc.t) =
  Ocolos_util.Codemap.fold
    (fun _ i acc -> acc + Ocolos_isa.Instr.size i)
    proc.Proc.mem.Addr_space.code 0

let test_never_returning_entry_replaced () =
  let w = Apps.event_loop () in
  let input = Workload.find_input w "steady" in
  let proc = Workload.launch w ~input in
  let oc = O.attach ~config:greedy_config proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:100_000 proc;
  let rounds = ref 0 in
  while O.c0_text_resident_bytes oc > 0 && !rounds < 10 do
    incr rounds;
    let _, stats = optimize_once proc oc in
    Alcotest.(check int) "one version per round" !rounds stats.O.version
  done;
  (* The entire original text — including the entry function, which never
     returns and whose frame only OSR can move — is unmapped. *)
  Alcotest.(check int) "no original text resident" 0 (O.c0_text_resident_bytes oc);
  let entry = proc.Proc.binary.Ocolos_binary.Binary.entry in
  Alcotest.(check bool) "original entry unmapped" true
    (Addr_space.read_code proc.Proc.mem entry = None);
  Alcotest.(check bool) "live entry moved" true
    ((O.current_binary oc).Ocolos_binary.Binary.entry <> entry);
  (* Exactly one code version resident: drain the transition window, reap,
     and the resident-extra accounting reads zero. *)
  Proc.run ~cycle_limit:infinity ~max_instrs:200_000 proc;
  ignore (O.gc_residue oc);
  Alcotest.(check int) "no residue after convergence" 0 (O.resident_extra_bytes oc);
  O.verify_no_dangling oc ~freed:[];
  (* And the loop is still serving transactions out of the final version. *)
  let tx = Proc.transactions proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:100_000 proc;
  Alcotest.(check bool) "still making progress" true (Proc.transactions proc > tx)

(* The reachability scanner must audit code pointers held by the default
   execution engine (cached block starts, per-thread resume memos), not
   just vtables, stacks and code. Severing the invalidation watcher
   reproduces the bug class: the engine keeps pointers into the retired
   text, and the post-GC scan has to catch them. *)
let test_scanner_covers_engine_pointers () =
  let run_round ~sever () =
    let w = Apps.tiny ~tx_limit:None () in
    let proc = Workload.launch w ~input:(Workload.find_input w "a") in
    let oc = O.attach proc in
    Proc.run ~cycle_limit:infinity ~max_instrs:150_000 proc;
    O.start_profiling oc;
    Proc.run ~cycle_limit:infinity ~max_instrs:150_000 proc;
    let profile, _ = O.stop_profiling oc in
    let result, _ = O.run_bolt oc profile in
    if sever then proc.Proc.mem.Addr_space.code_watchers <- [];
    let stats = O.replace_code oc result in
    (proc, stats)
  in
  (* Healthy path: the engine is invalidated through the watcher, the
     audit passes, and the caches validate against the new code map. *)
  let proc, stats = run_round ~sever:false () in
  Alcotest.(check int) "replacement committed" 1 stats.O.version;
  Alcotest.(check bool) "caches valid after OSR" true (Proc.validate_code_cache proc);
  Proc.run ~cycle_limit:infinity ~max_instrs:100_000 proc;
  (* Severed path: stale engine pointers into the retired text must be
     reported by the scanner, not silently survive. *)
  match run_round ~sever:true () with
  | exception O.Dangling_pointer _ -> ()
  | _ -> Alcotest.fail "scanner missed engine-held pointers into freed text"

let test_attach_revert_cycles_leak_no_text () =
  let w = Apps.tiny ~tx_limit:None () in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let oc = O.attach proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  (* A never-returning frame reverted out of optimized text keeps that
     text in place until it drains; repeated optimize/revert cycles must
     reuse that footprint, not grow it. *)
  let high_water = ref 0 in
  for cycle = 1 to 3 do
    ignore (optimize_once ~profile_instrs:60_000 proc oc);
    let rv = O.revert oc (O.c0_snapshot oc) in
    Alcotest.(check int) "reverted to C0" 0 rv.O.rv_to_version;
    Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
    ignore (O.gc_residue oc);
    O.verify_no_dangling oc ~freed:[];
    let bytes = mapped_code_bytes proc in
    if cycle = 1 then high_water := bytes
    else
      Alcotest.(check bool)
        (Printf.sprintf "cycle %d text (%d) within cycle-1 high water (%d)" cycle bytes
           !high_water)
        true (bytes <= !high_water)
  done;
  (* The process is still live and correct after three round trips. *)
  let tx = Proc.transactions proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  Alcotest.(check bool) "still making progress" true (Proc.transactions proc > tx)

(* fid -> live entry, read from the controller's current binary view. *)
let live_entries oc =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (s : Ocolos_binary.Binary.func_sym) ->
      Hashtbl.replace tbl s.Ocolos_binary.Binary.fs_fid s.Ocolos_binary.Binary.fs_entry)
    (O.current_binary oc).Ocolos_binary.Binary.symbols;
  tbl

(* The address space's symbol index after a transition: sorted by start,
   and the first and last byte of every range the live binary names
   resolve to that range's function. *)
let check_sym_index name oc =
  let mem = (O.proc oc).Proc.mem in
  let starts = Array.map (fun r -> r.Addr_space.sr_start) mem.Addr_space.sym_index in
  let sorted = Array.copy starts in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) (name ^ ": sym_index sorted by start") sorted starts;
  let misresolved =
    Array.to_list (O.current_binary oc).Ocolos_binary.Binary.symbols
    |> List.concat_map (fun (s : Ocolos_binary.Binary.func_sym) ->
           let fid = s.Ocolos_binary.Binary.fs_fid in
           List.concat_map
             (fun (r : Ocolos_binary.Binary.range) ->
               let first = r.Ocolos_binary.Binary.r_start in
               [ first; first + r.Ocolos_binary.Binary.r_size - 1 ])
             s.Ocolos_binary.Binary.fs_ranges
           |> List.filter_map (fun a ->
                  match Addr_space.fid_of_addr mem a with
                  | Some f when f = fid -> None
                  | got -> Some (a, fid, got)))
  in
  Alcotest.(check (list (triple int int (option int))))
    (name ^ ": range ends resolve to their fid (addr, fid, resolved)")
    [] misresolved

(* C2 -> C1: the snapshot's text is re-injected and every code pointer the
   forward rounds patched points back at C1's entries, not C0's. *)
let test_revert_to_intermediate_version () =
  let w = Apps.tiny ~tx_limit:None () in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let mem = proc.Proc.mem in
  let binary = proc.Proc.binary in
  let oc = O.attach proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  ignore (optimize_once ~profile_instrs:60_000 proc oc);
  let c1 = O.snapshot oc in
  let c1_entry = live_entries oc in
  ignore (optimize_once ~profile_instrs:60_000 proc oc);
  Alcotest.(check int) "at C2" 2 (O.version oc);
  let rv = O.revert oc c1 in
  Alcotest.(check int) "reverted from C2" 2 rv.O.rv_from_version;
  Alcotest.(check int) "reverted to C1" 1 rv.O.rv_to_version;
  let fid_of_c0_entry = Hashtbl.create 64 in
  Array.iter
    (fun (s : Ocolos_binary.Binary.func_sym) ->
      Hashtbl.replace fid_of_c0_entry s.Ocolos_binary.Binary.fs_entry
        s.Ocolos_binary.Binary.fs_fid)
    binary.Ocolos_binary.Binary.symbols;
  Array.iter
    (fun (vt : Ocolos_binary.Binary.vtable) ->
      Array.iteri
        (fun slot c0 ->
          let fid = Hashtbl.find fid_of_c0_entry c0 in
          let v =
            Addr_space.read_data mem (Addr_space.vtable_base mem vt.Ocolos_binary.Binary.vt_id + slot)
          in
          Alcotest.(check int)
            (Printf.sprintf "vtable %d slot %d reads C1" vt.Ocolos_binary.Binary.vt_id slot)
            (Hashtbl.find c1_entry fid) v)
        vt.Ocolos_binary.Binary.vt_entries)
    binary.Ocolos_binary.Binary.vtables;
  (* The offline call sites sit in C0 text, which C1 unmapped for every
     re-emitted owner; so check every direct call still mapped — the
     offline sites that survive, C1's re-injected text and the C2 text the
     revert kept alike. *)
  let calls = ref 0 in
  Ocolos_util.Codemap.iter
    (fun addr instr ->
      match instr with
      | Ocolos_isa.Instr.Call target ->
        incr calls;
        let callee = Addr_space.fid_of_addr mem target in
        Alcotest.(check (option int))
          (Printf.sprintf "call at 0x%x reads C1" addr)
          (Option.map (Hashtbl.find c1_entry) callee)
          (Some target)
      | _ -> ())
    mem.Addr_space.code;
  Alcotest.(check bool) "direct calls checked" true (!calls > 0);
  O.verify_no_dangling oc ~freed:[];
  check_sym_index "after the revert" oc;
  Proc.run ~cycle_limit:infinity ~max_instrs:200_000 proc;
  ignore (O.gc_residue oc);
  Alcotest.(check int) "no residue after the drain" 0 (O.resident_extra_bytes oc);
  check_sym_index "after the drain" oc;
  let tx = Proc.transactions proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  Alcotest.(check bool) "still making progress" true (Proc.transactions proc > tx)

(* Revert is the emergency brake: with every stop-the-world point armed to
   fire on its first hit, it must still complete, and reach none of them. *)
let test_revert_takes_no_fault_cuts () =
  let fault = Ocolos_util.Fault.create () in
  let w = Apps.tiny ~tx_limit:None () in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let oc = O.attach ~config:{ O.default_config with O.fault = Some fault } proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  ignore (optimize_once ~profile_instrs:60_000 proc oc);
  List.iter
    (fun p -> Ocolos_util.Fault.arm fault p (Ocolos_util.Fault.Every 1))
    O.injection_points;
  let hits () = List.map (fun p -> (p, Ocolos_util.Fault.hits fault p)) O.injection_points in
  let before = hits () in
  let rv = O.revert oc (O.c0_snapshot oc) in
  Alcotest.(check int) "reverted to C0" 0 rv.O.rv_to_version;
  Alcotest.(check (list (pair string int))) "no injection point hit" before (hits ());
  O.verify_no_dangling oc ~freed:[]

(* Retired text a forward round kept is the snapshot's own: reverting to
   that snapshot re-injects it, and it must leave the residue, or the
   transient accounting never drains and the reaper would one day unmap
   live text. *)
let test_revert_reinjects_kept_text () =
  let w = Apps.tiny ~tx_limit:(Some 400) () in
  let input = Workload.find_input w "a" in
  let reference =
    let proc = Workload.launch w ~input in
    Proc.run ~cycle_limit:infinity ~max_instrs:100_000_000 proc;
    Workload.checksums proc
  in
  let proc = Workload.launch w ~input in
  let oc = O.attach proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  ignore (optimize_once ~profile_instrs:60_000 proc oc);
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  ignore (O.gc_residue oc);
  Alcotest.(check int) "C1 round drained" 0 (O.resident_extra_bytes oc);
  let c1 = O.snapshot oc in
  (* C2 without frame maps: every stack-live C1 function keeps its text. *)
  O.start_profiling oc;
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  let profile, _ = O.stop_profiling oc in
  let result, _ = O.run_bolt oc profile in
  let s2 = O.replace_code oc { result with Ocolos_bolt.Bolt.frame_maps = [] } in
  Alcotest.(check bool) "C1 text kept" true (s2.O.copied_funcs > 0);
  Alcotest.(check bool) "kept text is residue" true (O.resident_extra_bytes oc > 0);
  ignore (O.revert oc c1);
  Alcotest.(check int) "no residue after the revert" 0 (O.resident_extra_bytes oc);
  O.verify_no_dangling oc ~freed:[];
  check_sym_index "after the revert" oc;
  Proc.run ~cycle_limit:infinity ~max_instrs:200_000 proc;
  ignore (O.gc_residue oc);
  Alcotest.(check int) "no residue after the drain" 0 (O.resident_extra_bytes oc);
  O.verify_no_dangling oc ~freed:[];
  check_sym_index "after the drain" oc;
  Proc.run ~cycle_limit:infinity ~max_instrs:100_000_000 proc;
  Alcotest.(check (list int)) "checksums of an uninterrupted run" reference
    (Workload.checksums proc)

(* What a revert to a snapshot must restore, once drained of residue:
   version, live entries, resident ranges and tracked words. The entry
   index is left out (it only grows), and so are the binary view's ranges,
   which list the residue the revert left until the next commit. *)
let view_fields (v : Osr.view) =
  ( v.Osr.version,
    Array.map (fun (s : Ocolos_binary.Binary.func_sym) -> s.Ocolos_binary.Binary.fs_entry)
      v.Osr.current.Ocolos_binary.Binary.symbols,
    Array.to_list v.Osr.resident,
    (Osr.Iset.elements v.Osr.init_addrs, Osr.Iset.elements v.Osr.table_addrs) )

(* Each function's ranges in the live binary are its resident ranges plus
   its residue's: a reap drops what it unmapped from the view's symbols. *)
let check_ranges_are_resident_plus_residue name oc =
  let v = O.view oc in
  let pairs (s : Ocolos_binary.Binary.func_sym) =
    List.map
      (fun (r : Ocolos_binary.Binary.range) ->
        (r.Ocolos_binary.Binary.r_start, r.Ocolos_binary.Binary.r_start + r.Ocolos_binary.Binary.r_size))
      s.Ocolos_binary.Binary.fs_ranges
  in
  Array.iter
    (fun (s : Ocolos_binary.Binary.func_sym) ->
      let fid = s.Ocolos_binary.Binary.fs_fid in
      let residue =
        List.concat_map
          (fun (r : Osr.residue) -> if r.Osr.rs_fid = fid then r.Osr.rs_ranges else [])
          v.Osr.residue
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s: fid %d's ranges = resident + residue" name fid)
        (List.sort compare (v.Osr.resident.(fid) @ residue))
        (List.sort compare (pairs s)))
    (O.current_binary oc).Ocolos_binary.Binary.symbols

(* One C1 snapshot backs two reverts, C2 -> C1 -> C2' -> C1: the first
   revert must not disturb the snapshot, and both leave C1's view. *)
let test_one_snapshot_two_reverts () =
  let w = Apps.tiny ~tx_limit:None () in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let oc = O.attach proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  ignore (optimize_once ~profile_instrs:60_000 proc oc);
  Proc.run ~cycle_limit:infinity ~max_instrs:200_000 proc;
  ignore (O.gc_residue oc);
  Alcotest.(check int) "C1 drained" 0 (O.resident_extra_bytes oc);
  let c1 = O.snapshot oc in
  let c1_view = view_fields (O.view oc) in
  let forward_then_back name =
    let _, stats = optimize_once ~profile_instrs:60_000 proc oc in
    Alcotest.(check int) (name ^ ": at C2") 2 stats.O.version;
    Alcotest.(check bool) (name ^ ": C2 moved the view") true (view_fields (O.view oc) <> c1_view);
    let rv = O.revert oc c1 in
    Alcotest.(check int) (name ^ ": reverted to C1") 1 rv.O.rv_to_version;
    O.verify_no_dangling oc ~freed:[];
    check_sym_index (name ^ ": after the revert") oc;
    Proc.run ~cycle_limit:infinity ~max_instrs:200_000 proc;
    ignore (O.gc_residue oc);
    Alcotest.(check int) (name ^ ": drained") 0 (O.resident_extra_bytes oc);
    check_ranges_are_resident_plus_residue name oc;
    check_sym_index (name ^ ": after the drain") oc;
    Alcotest.(check bool) (name ^ ": C1's view") true (view_fields (O.view oc) = c1_view)
  in
  forward_then_back "first";
  forward_then_back "second";
  let tx = Proc.transactions proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  Alcotest.(check bool) "still making progress" true (Proc.transactions proc > tx)

(* The fleet's rollback at scale: on the mysql analog a commit re-emits
   enough functions that the revert to C0 re-injects a range for each of
   them. C0's resident ranges are back, mapped and indexed. *)
let test_revert_to_c0_on_mysql () =
  let w = Apps.mysql_like () in
  let proc = Workload.launch w ~input:(Workload.find_input w "read_only") in
  let mem = proc.Proc.mem in
  let oc = O.attach proc in
  let c0_resident = (O.view oc).Osr.resident in
  Proc.run ~cycle_limit:infinity ~max_instrs:100_000 proc;
  let _, stats = optimize_once ~profile_instrs:300_000 proc oc in
  Alcotest.(check int) "at C1" 1 stats.O.version;
  let rv = O.revert oc (O.c0_snapshot oc) in
  Alcotest.(check int) "reverted to C0" 0 rv.O.rv_to_version;
  Alcotest.(check bool) "text re-injected" true (rv.O.rv_code_bytes_reinjected > 0);
  check_sym_index "after the revert" oc;
  O.verify_no_dangling oc ~freed:[];
  Alcotest.(check (array (list (pair int int))))
    "C0's resident ranges" c0_resident (O.view oc).Osr.resident;
  Alcotest.(check (list int)) "C0's ranges mapped (unmapped starts)" []
    (Array.to_list c0_resident |> List.concat
    |> List.filter_map (fun (rs, _) ->
           if Addr_space.read_code mem rs = None then Some rs else None));
  let tx = Proc.transactions proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:100_000 proc;
  Alcotest.(check bool) "still making progress" true (Proc.transactions proc > tx)

(* The shadow checker's resolver is frozen when taken: at C1 it resolves
   every function's entries to C1's, and keeps doing so after a commit to
   C2 and a revert to C0 move the live resolver elsewhere. *)
let test_frozen_translate_fp_outlives_transitions () =
  let w = Apps.tiny ~tx_limit:None () in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let oc = O.attach proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  ignore (optimize_once ~profile_instrs:60_000 proc oc);
  let frozen = O.frozen_translate_fp oc in
  let c1_entry = live_entries oc in
  let c0_entries =
    Array.to_list proc.Proc.binary.Ocolos_binary.Binary.symbols
    |> List.map (fun (s : Ocolos_binary.Binary.func_sym) ->
           (s.Ocolos_binary.Binary.fs_fid, s.Ocolos_binary.Binary.fs_entry))
  in
  let live = Option.get proc.Proc.hooks.Proc.translate_fp in
  let check name =
    List.iter
      (fun (fid, e) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: fid %d's C0 entry resolves to C1" name fid)
          (Hashtbl.find c1_entry fid) (frozen e);
        Alcotest.(check int)
          (Printf.sprintf "%s: fid %d's C1 entry resolves to itself" name fid)
          (Hashtbl.find c1_entry fid)
          (frozen (Hashtbl.find c1_entry fid)))
      c0_entries;
    Alcotest.(check bool) (name ^ ": the live resolver moved") true
      (List.exists (fun (_, e) -> live e <> frozen e) c0_entries)
  in
  ignore (optimize_once ~profile_instrs:60_000 proc oc);
  Alcotest.(check int) "at C2" 2 (O.version oc);
  check "after a commit to C2";
  ignore (O.revert oc (O.c0_snapshot oc));
  Alcotest.(check int) "at C0" 0 (O.version oc);
  check "after a revert to C0"

(* Checksums, transactions and each thread's final state. *)
let outcome proc =
  ( Workload.checksums proc,
    Proc.transactions proc,
    Array.to_list (Array.map (fun th -> th.Ocolos_proc.Thread.state) proc.Proc.threads) )

(* A commit followed by its revert is a semantic no-op: run to completion,
   the process ends exactly as one that never committed, whether the
   revert goes back to C0 or to an intermediate C1. *)
let test_revert_differential () =
  let w = Apps.tiny ~tx_limit:(Some 400) () in
  let input = Workload.find_input w "a" in
  let finish proc =
    Proc.run ~cycle_limit:infinity ~max_instrs:100_000_000 proc;
    outcome proc
  in
  let reference = finish (Workload.launch w ~input) in
  let check name ~to_c1 =
    let proc = Workload.launch w ~input in
    let oc = O.attach proc in
    Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
    ignore (optimize_once ~profile_instrs:60_000 proc oc);
    let target = if to_c1 then O.snapshot oc else O.c0_snapshot oc in
    if to_c1 then ignore (optimize_once ~profile_instrs:60_000 proc oc);
    ignore (O.revert oc target);
    Alcotest.(check int) (name ^ ": reverted") (O.snapshot_version target) (O.version oc);
    let got = finish proc in
    ignore (O.gc_residue oc);
    O.verify_no_dangling oc ~freed:[];
    Alcotest.(check bool) (name ^ ": ends as a run that never committed") true (got = reference)
  in
  check "to C0" ~to_c1:false;
  check "to C1" ~to_c1:true

(* fids the process names as entries: v-table slots, direct calls and
   function-pointer creations in other functions, live frames' saved
   callee entries. *)
let named_fids (proc : Proc.t) =
  let mem = proc.Proc.mem in
  let fids = Hashtbl.create 64 in
  let name addr =
    Option.iter (fun fid -> Hashtbl.replace fids fid ()) (Addr_space.fid_of_addr mem addr)
  in
  Array.iter
    (fun (vt : Ocolos_binary.Binary.vtable) ->
      Array.iteri
        (fun slot _ ->
          let base = Addr_space.vtable_base mem vt.Ocolos_binary.Binary.vt_id in
          name (Addr_space.read_data mem (base + slot)))
        vt.Ocolos_binary.Binary.vt_entries)
    proc.Proc.binary.Ocolos_binary.Binary.vtables;
  Ocolos_util.Codemap.iter
    (fun addr instr ->
      match instr with
      | Ocolos_isa.Instr.Call target | Ocolos_isa.Instr.FpCreate (_, target) ->
        if Addr_space.fid_of_addr mem addr <> Addr_space.fid_of_addr mem target then name target
      | _ -> ())
    mem.Addr_space.code;
  Array.iter
    (fun (th : Ocolos_proc.Thread.t) ->
      if Ocolos_proc.Thread.is_running th then
        List.iter
          (fun (f : Ocolos_proc.Thread.frame) -> name f.Ocolos_proc.Thread.callee_entry)
          (Ocolos_proc.Thread.live_frames th))
    proc.Proc.threads;
  Hashtbl.fold (fun fid () acc -> fid :: acc) fids [] |> List.sort compare

(* A controller re-attached after its predecessor died must find every
   named function's live entry, also when text kept in place lies below
   it (a commit without frame maps) or above it (a revert to C0). *)
let check_reattach_entries name ~leave_residue =
  let w = Apps.tiny ~tx_limit:None () in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let oc = O.attach proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  ignore (optimize_once ~profile_instrs:60_000 proc oc);
  leave_residue proc oc;
  Alcotest.(check bool) (name ^ ": text kept") true (O.residue_bytes oc > 0);
  let dead = live_entries oc in
  let fresh = live_entries (O.reattach proc) in
  let named = named_fids proc in
  Alcotest.(check bool) (name ^ ": functions named") true (named <> []);
  List.iter
    (fun fid ->
      Alcotest.(check int)
        (Printf.sprintf "%s: fid %d entry" name fid)
        (Hashtbl.find dead fid) (Hashtbl.find fresh fid))
    named

let test_reattach_after_mapless_commit () =
  check_reattach_entries "commit without frame maps" ~leave_residue:(fun proc oc ->
      O.start_profiling oc;
      Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
      let profile, _ = O.stop_profiling oc in
      let result, _ = O.run_bolt oc profile in
      ignore (O.replace_code oc { result with Ocolos_bolt.Bolt.frame_maps = [] }))

let test_reattach_after_revert_to_c0 () =
  check_reattach_entries "revert to C0" ~leave_residue:(fun _ oc ->
      ignore (O.revert oc (O.c0_snapshot oc)))

(* The scanner's code-map sweep: a static target into freed text held by
   mapped code no other scan covers (here two planted calls in a fresh
   mapping) is reported, and the report names the lowest such site. *)
let test_scanner_sweeps_the_code_map () =
  let w = Apps.tiny ~tx_limit:None () in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let oc = O.attach proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  let result, _ = optimize_once ~profile_instrs:60_000 proc oc in
  O.verify_no_dangling oc ~freed:[];
  let mem = proc.Proc.mem in
  let freed =
    List.find
      (fun (old_entry, _) -> Addr_space.read_code mem old_entry = None)
      result.Ocolos_bolt.Bolt.translation
    |> fst
  in
  let base = Addr_space.reserve_code mem 16 in
  Addr_space.write_code mem (base + 8) (Ocolos_isa.Instr.Call freed);
  Addr_space.write_code mem base (Ocolos_isa.Instr.Call freed);
  match O.verify_no_dangling oc ~freed:[] with
  | () -> Alcotest.fail "scanner missed a call into freed text"
  | exception O.Dangling_pointer msg ->
    Alcotest.(check string) "lowest site reported"
      (Printf.sprintf "instr at 0x%x references freed code at 0x%x" base freed)
      msg

(* Two invariants the controller relies on instead of walking the code
   map: every mapped instruction ends at or below the mmap cursor (so
   [run_bolt]'s hull needs no code walk), and the live view's code map
   holds exactly the process code map's keys (so [current_of] can copy
   it whole). Checked after a commit, a rolled-back transaction, a revert
   and a reattach. *)
let test_code_map_views_after_every_transition () =
  let check name oc (proc : Proc.t) =
    let mem = proc.Proc.mem in
    let code_top =
      Ocolos_util.Codemap.fold
        (fun a i acc -> max acc (a + Ocolos_isa.Instr.size i))
        mem.Addr_space.code 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: code top 0x%x <= mmap cursor 0x%x" name code_top
         mem.Addr_space.next_map_base)
      true
      (code_top <= mem.Addr_space.next_map_base);
    let keys tbl = Array.to_list (Ocolos_util.Codemap.keys tbl) in
    let view = O.current_binary oc in
    Alcotest.(check (list int)) (name ^ ": view code map keys = process code map keys")
      (keys mem.Addr_space.code) (keys view.Ocolos_binary.Binary.code)
  in
  let w = Apps.tiny ~tx_limit:None () in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let oc = O.attach proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  let _, stats = optimize_once ~profile_instrs:60_000 proc oc in
  Alcotest.(check int) "committed C1" 1 stats.O.version;
  check "commit" oc proc;
  O.start_profiling oc;
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  let profile, _ = O.stop_profiling oc in
  let result, _ = O.run_bolt oc profile in
  (match Ocolos_core.Txn.replace_code ~verify:(fun () -> Error "forced") oc result with
  | Ocolos_core.Txn.Diverged _ -> ()
  | _ -> Alcotest.fail "forced verdict did not roll back");
  check "rollback" oc proc;
  ignore (O.revert oc (O.c0_snapshot oc));
  check "revert" oc proc;
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  check "reattach" (O.reattach proc) proc

(* Boundary-only frame maps send every mid-block PC through a compensation
   stub. The round indexes its stubs in one batch once the threads are
   migrated: afterwards the index is sorted and every stub range the live
   view names resolves to its function. *)
let test_sym_index_after_stub_commit () =
  let w = Apps.tiny ~tx_limit:None () in
  let proc = Workload.launch ~nthreads:2 w ~input:(Workload.find_input w "a") in
  let config =
    { O.default_config with
      O.bolt = { O.default_config.O.bolt with Ocolos_bolt.Bolt.exact_frame_maps = false } }
  in
  let oc = O.attach ~config proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:40_000 proc;
  let stubs = ref 0 and rounds = ref 0 in
  while !stubs = 0 && !rounds < 5 do
    incr rounds;
    let _, stats = optimize_once ~profile_instrs:60_000 proc oc in
    stubs := stats.O.osr_stubs;
    check_sym_index (Printf.sprintf "after commit %d" !rounds) oc
  done;
  Alcotest.(check bool) "a commit went through stubs" true (!stubs > 0);
  O.verify_no_dangling oc ~freed:[];
  Proc.run ~cycle_limit:infinity ~max_instrs:200_000 proc;
  ignore (O.gc_residue oc);
  check_sym_index "after the drain" oc

let suite =
  [ Alcotest.test_case "never-returning entry replaced" `Slow
      test_never_returning_entry_replaced;
    Alcotest.test_case "scanner covers engine pointers" `Quick
      test_scanner_covers_engine_pointers;
    Alcotest.test_case "attach/revert cycles leak no text" `Quick
      test_attach_revert_cycles_leak_no_text;
    Alcotest.test_case "revert to an intermediate version" `Quick
      test_revert_to_intermediate_version;
    Alcotest.test_case "revert takes no fault cuts" `Quick test_revert_takes_no_fault_cuts;
    Alcotest.test_case "revert re-injects kept text" `Quick test_revert_reinjects_kept_text;
    Alcotest.test_case "revert differential" `Quick test_revert_differential;
    Alcotest.test_case "one snapshot backs two reverts" `Quick test_one_snapshot_two_reverts;
    Alcotest.test_case "revert to C0 on mysql" `Quick test_revert_to_c0_on_mysql;
    Alcotest.test_case "frozen fp resolver outlives transitions" `Quick
      test_frozen_translate_fp_outlives_transitions;
    Alcotest.test_case "reattach after a commit without frame maps" `Quick
      test_reattach_after_mapless_commit;
    Alcotest.test_case "reattach after a revert to C0" `Quick test_reattach_after_revert_to_c0;
    Alcotest.test_case "scanner sweeps the code map" `Quick test_scanner_sweeps_the_code_map;
    Alcotest.test_case "code map views after every transition" `Quick
      test_code_map_views_after_every_transition;
    Alcotest.test_case "symbol index after a commit through stubs" `Quick
      test_sym_index_after_stub_commit ]
