(* Miscompile containment tests: the Tier-1 translation validator
   (pre-commit CFG-equivalence gate), the Tier-2 shadow checker (in-txn
   replay divergence gate), and the chaos property over the
   bolt.miscompile fault domain — for every corruption mode, no process
   ever keeps a divergent version: either the validator rejects it before
   [Txn.replace_code] (quarantining the offender) or the shadow unwinds
   the transaction byte-exactly, and the surviving trace is identical to
   an uninterrupted run. Also covers the Guard quarantine surviving a
   fleet restart and Perf2bolt.decimate edge cases (satellites). *)

open Ocolos_workloads
module O = Ocolos_core.Ocolos
module Daemon = Ocolos_core.Daemon
module Fleet = Ocolos_core.Fleet
module Guard = Ocolos_core.Guard
module Supervisor = Ocolos_core.Supervisor
module Shadow = Ocolos_core.Shadow
module Txn = Ocolos_core.Txn
module Validate = Ocolos_bolt.Validate
module Miscompile = Ocolos_bolt.Miscompile
module Bolt = Ocolos_bolt.Bolt
module Frame_map = Ocolos_bolt.Frame_map
module Binary = Ocolos_binary.Binary
module Instr = Ocolos_isa.Instr
module Perf2bolt = Ocolos_profiler.Perf2bolt
module Perf = Ocolos_profiler.Perf
module Lbr = Ocolos_profiler.Lbr
module Chaos = Ocolos_sim.Chaos
module F = Ocolos_util.Fault
module Proc = Ocolos_proc.Proc
module Addr_space = Ocolos_proc.Addr_space

let deep = Sys.getenv_opt "OCOLOS_DEEP_TESTS" <> None

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* Tiny workload with its jump tables kept, so the jump_table corruption
   mode has data to rotate. *)
let launch () =
  let base = Apps.tiny ~tx_limit:None () in
  let w =
    Workload.build ~no_jump_tables:false ~name:"tiny-jt" ~inputs:base.Workload.inputs
      ~nthreads:2 base.Workload.gen
  in
  Workload.launch w ~input:(Workload.find_input w "a")

let profile_and_bolt ?config () =
  let proc = launch () in
  let oc = O.attach ?config proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:40_000 proc;
  O.start_profiling oc;
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  let profile, _ = O.stop_profiling oc in
  let result, _ = O.run_bolt oc profile in
  (proc, oc, result)

(* ---- Tier 1: translation validation ---- *)

let test_valid_result_passes () =
  let _proc, oc, result = profile_and_bolt () in
  let report = O.validate_result oc result in
  Alcotest.(check bool) "valid BOLT output accepted" true (Validate.ok report);
  Alcotest.(check (list int)) "no rejected fids" [] (Validate.rejected_fids report);
  Alcotest.(check bool) "validator walked functions" true (report.Validate.rp_funcs > 0);
  Alcotest.(check bool) "validator walked instrs" true (report.Validate.rp_instrs > 100)

(* Every corruption mode except jump_table must be caught by the static
   checks; jump_table keeps every word a valid block start and is the
   designed Tier-1 blind spot (caught at run time by the shadow). *)
let test_tier1_catches_corruptions () =
  let _proc, oc, result = profile_and_bolt () in
  List.iter
    (fun point ->
      let corrupted, mutations = Miscompile.apply ~point ~salt:1 result in
      Alcotest.(check bool) (point ^ ": corruption applied") true (mutations > 0);
      let report = O.validate_result oc corrupted in
      if point = "bolt.miscompile.jump_table" then
        Alcotest.(check bool)
          (point ^ ": passes Tier 1 by design (run-time blind spot)") true
          (Validate.ok report)
      else begin
        Alcotest.(check bool) (point ^ ": rejected by Tier 1") false (Validate.ok report);
        Alcotest.(check bool)
          (point ^ ": offending fids identified") true
          (Validate.rejected_fids report <> [])
      end)
    Miscompile.points

(* Different salts pick different corruption sites. The structural modes
   must be rejected at every site. branch_polarity has a sound exception:
   a conditional whose taken target is its own fall-through block (both
   successors are the same block) is semantically insensitive to its
   polarity, and the validator accepts the negated form precisely for
   those degenerate sites — so the property checked here is an iff:
   accepted <=> the old branch was degenerate. *)
let test_tier1_rejects_across_salts () =
  let _proc, oc, result = profile_and_bolt () in
  List.iter
    (fun point ->
      List.iter
        (fun salt ->
          let corrupted, mutations = Miscompile.apply ~point ~salt result in
          if mutations > 0 then
            let report = O.validate_result oc corrupted in
            Alcotest.(check bool)
              (Fmt.str "%s salt %d rejected" point salt)
              false (Validate.ok report))
        [ 2; 3; 5 ])
    [ "bolt.miscompile.drop_block";
      "bolt.miscompile.stale_reloc";
      "bolt.miscompile.frame_map" ];
  (* branch_polarity, exhaustively over every candidate site. Candidates
     are enumerated exactly the way [Miscompile.apply] does: Branch
     instructions in emitted code order, salt = index. *)
  let nt = result.Bolt.new_text in
  let binary = O.current_binary oc in
  let sites =
    Array.to_list nt.Binary.code_order
    |> List.filter_map (fun a ->
           match Hashtbl.find_opt nt.Binary.code a with
           | Some (Instr.Branch _) -> Some a
           | _ -> None)
  in
  let all_blocks =
    List.concat_map
      (fun (_, (fm : Frame_map.t)) -> Array.to_list fm.Frame_map.fm_blocks)
      result.Bolt.frame_maps
  in
  (* Whether the old block owning the emitted branch at [site] ends in a
     branch whose taken target is the block's own fall-through. *)
  let degenerate site =
    let owner =
      List.fold_left
        (fun acc (bs : Frame_map.block_site) ->
          if bs.Frame_map.bs_new_start <= site then
            match acc with
            | Some (b : Frame_map.block_site)
              when b.Frame_map.bs_new_start >= bs.Frame_map.bs_new_start -> acc
            | _ -> Some bs
          else acc)
        None all_blocks
    in
    match owner with
    | None -> false
    | Some bs ->
      let rec last pc prev =
        if pc >= bs.Frame_map.bs_old_end then prev
        else
          match Binary.find_instr binary pc with
          | Some i -> last (pc + Instr.size i) (Some i)
          | None -> prev
      in
      (match last bs.Frame_map.bs_old_start None with
      | Some (Instr.Branch (_, _, t)) -> t = bs.Frame_map.bs_old_end
      | _ -> false)
  in
  Alcotest.(check bool) "branch candidates exist" true (sites <> []);
  let rejected = ref 0 in
  List.iteri
    (fun salt site ->
      let corrupted, mutations =
        Miscompile.apply ~point:"bolt.miscompile.branch_polarity" ~salt result
      in
      Alcotest.(check bool) (Fmt.str "salt %d mutated" salt) true (mutations > 0);
      let ok = Validate.ok (O.validate_result oc corrupted) in
      if not ok then incr rejected;
      Alcotest.(check bool)
        (Fmt.str "branch_polarity salt %d (site 0x%x): accepted iff degenerate" salt site)
        (degenerate site) ok)
    sites;
  Alcotest.(check bool) "most polarity flips are harmful and rejected" true
    (!rejected * 2 > List.length sites)

(* The validator's verdicts are pinned, not just its accept/reject bit:
   for every corruption mode x salts 1-3, the report's counters and its
   full rejection list (check, fid, reason text, order) equal the values
   recorded from the per-record, unshared-reconstruction validator this
   one replaced. A faster validator must keep every check and word. *)
let pinned_reports =
  [ ( "bolt.miscompile.branch_polarity", 1, (15, 66, 585),
      [ ("bb_reorder", 15, "branch at 0x7000c0 inconsistent under the layout permutation: le r13 -> 0x7000b4 (taken block 1 at 0x7000b4, fallthrough block 2 at 0x7000c4)") ] );
    ( "bolt.miscompile.branch_polarity", 2, (15, 66, 585),
      [] );
    ( "bolt.miscompile.branch_polarity", 3, (15, 66, 585),
      [ ("bb_reorder", 5, "branch at 0x70013a inconsistent under the layout permutation: lt r9 -> 0x700271 (taken block 3 at 0x70013e, fallthrough block 1 at 0x700271)") ] );
    ( "bolt.miscompile.drop_block", 1, (15, 66, 584),
      [ ("emit", 8, "decode hole at 0x70001e in block 2 (dropped block?)");
        ("frame_map", 8, "exact point 0x10664 -> 0x70001e lands off an instruction boundary in the new text");
        ("frame_map", 8, "exact point 0x10678 -> 0x70001e lands off an instruction boundary in the new text") ] );
    ( "bolt.miscompile.drop_block", 2, (15, 66, 580),
      [ ("emit", 8, "decode hole at 0x700023 in block 4 (dropped block?)");
        ("frame_map", 8, "exact point 0x1065f -> 0x700023 lands off an instruction boundary in the new text");
        ("frame_map", 8, "exact point 0x1067d -> 0x700023 lands off an instruction boundary in the new text");
        ("frame_map", 8, "exact point 0x10682 -> 0x700028 lands off an instruction boundary in the new text");
        ("frame_map", 8, "exact point 0x10689 -> 0x70002f lands off an instruction boundary in the new text");
        ("frame_map", 8, "exact point 0x1068b -> 0x700031 lands off an instruction boundary in the new text");
        ("frame_map", 8, "exact point 0x1068c -> 0x700032 lands off an instruction boundary in the new text") ] );
    ( "bolt.miscompile.drop_block", 3, (15, 66, 580),
      [ ("emit", 8, "decode hole at 0x700023 in block 4 (dropped block?)");
        ("frame_map", 8, "exact point 0x1065f -> 0x700023 lands off an instruction boundary in the new text");
        ("frame_map", 8, "exact point 0x1067d -> 0x700023 lands off an instruction boundary in the new text");
        ("frame_map", 8, "exact point 0x10682 -> 0x700028 lands off an instruction boundary in the new text");
        ("frame_map", 8, "exact point 0x10689 -> 0x70002f lands off an instruction boundary in the new text");
        ("frame_map", 8, "exact point 0x1068b -> 0x700031 lands off an instruction boundary in the new text");
        ("frame_map", 8, "exact point 0x1068c -> 0x700032 lands off an instruction boundary in the new text") ] );
    ( "bolt.miscompile.stale_reloc", 1, (15, 66, 580),
      [ ("emit", 8, "stale call relocation at 0x700023: callee 5 must resolve to 0x700110, found 0x10370") ] );
    ( "bolt.miscompile.stale_reloc", 2, (15, 66, 561),
      [ ("emit", 16, "stale fp-create relocation at 0x700040: function 11 must resolve to 0x700600, found 0x107b0") ] );
    ( "bolt.miscompile.stale_reloc", 3, (15, 66, 583),
      [ ("emit", 15, "stale call relocation at 0x7000aa: callee 10 must resolve to 0x700370, found 0x10750") ] );
    ( "bolt.miscompile.frame_map", 1, (15, 66, 585),
      [ ("frame_map", 0, "exact point 0x10004 -> 0x700635 lands off an instruction boundary in the new text") ] );
    ( "bolt.miscompile.frame_map", 2, (15, 66, 585),
      [ ("frame_map", 0, "exact point 0x10008 -> 0x700639 lands off an instruction boundary in the new text") ] );
    ( "bolt.miscompile.frame_map", 3, (15, 66, 585),
      [ ("frame_map", 0, "exact point 0x1000b -> 0x70063c lands off an instruction boundary in the new text") ] );
    ( "bolt.miscompile.jump_table", 1, (15, 66, 585),
      [] );
    ( "bolt.miscompile.jump_table", 2, (15, 66, 585),
      [] );
    ( "bolt.miscompile.jump_table", 3, (15, 66, 585),
      [] ) ]

let test_tier1_reports_pinned () =
  let _proc, oc, result = profile_and_bolt () in
  List.iter
    (fun (point, salt, (funcs, blocks, instrs), rejections) ->
      let corrupted, _ = Miscompile.apply ~point ~salt result in
      let r = O.validate_result oc corrupted in
      let name = Fmt.str "%s salt %d" point salt in
      Alcotest.(check (list int))
        (name ^ ": funcs/blocks/instrs") [ funcs; blocks; instrs ]
        [ r.Validate.rp_funcs; r.Validate.rp_blocks; r.Validate.rp_instrs ];
      Alcotest.(check (list (triple string int string)))
        (name ^ ": rejections") rejections
        (List.map
           (fun (rj : Validate.rejection) ->
             (rj.Validate.rj_check, rj.Validate.rj_fid, rj.Validate.rj_reason))
           r.Validate.rp_rejections))
    pinned_reports

(* BOLT and the validator share one CFG memo per campaign, so nothing
   downstream of reconstruction may mutate it: after BOLT (profile counts
   attached to its copies) and every miscompile mode, each memoized CFG
   still equals a fresh decoding of the binary, and validating with the
   shared memo or without it gives the same report. *)
let test_shared_cfgs_untouched () =
  let module Cfg = Ocolos_bolt.Cfg in
  let proc = launch () in
  let oc = O.attach proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:40_000 proc;
  O.start_profiling oc;
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  let profile, _ = O.stop_profiling oc in
  let binary = O.current_binary oc in
  let cfg_of = Cfg.memoize binary in
  let result = Bolt.run ~cfg_of ~binary ~profile () in
  let decoded (rc : Cfg.reconstructed) =
    ( rc.Cfg.rc_func,
      rc.Cfg.rc_block_addr,
      rc.Cfg.rc_block_end,
      rc.Cfg.rc_instr_addrs )
  in
  let corrupted =
    List.map (fun point -> fst (Miscompile.apply ~point ~salt:1 result)) Miscompile.points
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "same report with and without the shared memo" true
        (Validate.run ~cfg_of ~binary r = Validate.run ~binary r))
    (result :: corrupted);
  Alcotest.(check bool) "BOLT optimized functions" true (result.Bolt.hot_fids <> []);
  List.iter
    (fun fid ->
      let shared = cfg_of fid in
      Alcotest.(check bool) (Fmt.str "fid %d: memoized CFG = fresh decoding" fid) true
        (decoded shared = decoded (Cfg.of_binary binary fid));
      Alcotest.(check bool) (Fmt.str "fid %d: counts fresh per call" fid) true
        (Array.for_all (( = ) 0) shared.Cfg.rc_counts && Hashtbl.length shared.Cfg.rc_edges = 0))
    result.Bolt.hot_fids

(* ---- Tier 2: shadow checker ---- *)

(* A clean commit must replay Match: the dual-clone comparison tolerates
   the legitimate layout change (per the translation map) and the check is
   deterministic — two arms of the same commit agree. *)
let test_shadow_match_on_valid_commit () =
  let _proc, oc, result = profile_and_bolt () in
  let pre = Shadow.prepare oc in
  let pre2 = Shadow.prepare oc in
  (match Txn.replace_code oc result with
  | Txn.Committed _ -> ()
  | Txn.Rolled_back _ -> Alcotest.fail "clean commit rolled back"
  | Txn.Diverged _ -> Alcotest.fail "clean commit diverged");
  (match Shadow.check (Shadow.arm pre oc result) with
  | Shadow.Match -> ()
  | Shadow.Divergence why -> Alcotest.fail ("valid commit flagged divergent: " ^ why));
  match Shadow.check (Shadow.arm pre2 oc result) with
  | Shadow.Match -> ()
  | Shadow.Divergence why -> Alcotest.fail ("second shadow check disagreed: " ^ why)

(* The jump_table blind spot end-to-end: the corrupted result passes
   Tier 1, commits, and the shadow replay catches the rotated indirect
   targets — the daemon reports [Reverted], the transaction has already
   unwound (version unchanged), and the breaker is tripped so the same
   result is not replayed. *)
let test_jump_table_caught_by_shadow () =
  let proc = launch () in
  let fault = F.create ~seed:1 () in
  F.arm fault "bolt.miscompile.jump_table" (F.Nth 1);
  let oc = O.attach ~config:{ O.default_config with O.fault = Some fault } proc in
  let d =
    Daemon.create
      ~config:
        { Daemon.default_config with
          Daemon.profile_s = 1.0;
          warmup_s = 0.5;
          min_interval_s = 2.0 }
      oc proc
  in
  let reverted = ref None in
  let ticks = ref 0 in
  (try
     for i = 0 to 29 do
       Proc.run ~cycle_limit:infinity ~max_instrs:12_000 proc;
       match Daemon.tick d ~now_s:(float_of_int (i + 1)) with
       | Daemon.Reverted { reason } ->
         reverted := Some reason;
         ticks := i;
         raise Exit
       | Daemon.Replaced _ -> Alcotest.fail "corrupted jump table commit survived"
       | _ -> ()
     done
   with Exit -> ());
  (match !reverted with
  | None -> Alcotest.fail "shadow never caught the rotated jump table"
  | Some reason ->
    Alcotest.(check bool) "divergence names an indirect jump" true
      (contains reason "ijmp"));
  Alcotest.(check int) "transaction unwound: version still 0" 0 (O.version oc);
  Alcotest.(check bool) "breaker tripped" true (Daemon.breaker_state d <> Guard.Closed);
  Alcotest.(check int) "counted as a rollback" 1 (Daemon.rollbacks d);
  (* Global-mode dangling-pointer audit: raises on any stale reference. *)
  O.verify_no_dangling oc ~freed:[]

(* ---- the chaos property over the whole fault domain ---- *)

let check_mc (r : Chaos.mc_result) =
  match Chaos.mc_verdict r with
  | `Pass -> ()
  | `Unreached -> Alcotest.fail ("unreached: " ^ Chaos.mc_result_to_string r)
  | `Fail -> Alcotest.fail ("containment failed: " ^ Chaos.mc_result_to_string r)

let test_miscompile_chaos_property () =
  let seeds = if deep then [ 1; 2; 3 ] else [ 1 ] in
  let results = Chaos.miscompile_sweep ~seeds () in
  Alcotest.(check int)
    "one scenario per seed x point"
    (List.length seeds * List.length Chaos.miscompile_points)
    (List.length results);
  List.iter check_mc results;
  (* Both tiers must actually fire across the sweep. *)
  let tiers =
    List.filter_map
      (fun r ->
        match r.Chaos.mc_outcome with
        | Chaos.Mc_contained { mc_tier; _ } -> Some mc_tier
        | _ -> None)
      results
  in
  Alcotest.(check bool) "Tier 1 fired" true (List.mem `Validate tiers);
  Alcotest.(check bool) "Tier 2 fired" true (List.mem `Shadow tiers)

(* The reference engine replays the same containment; deep mode widens to
   the full catalog, the default pins the representative of each tier. *)
let test_miscompile_chaos_engines () =
  let config = { Chaos.default_config with Chaos.engine = `Reference } in
  let points =
    if deep then Chaos.miscompile_points
    else [ "bolt.miscompile.branch_polarity"; "bolt.miscompile.jump_table" ]
  in
  List.iter
    (fun point -> check_mc (Chaos.miscompile_scenario ~config ~seed:1 ~point ()))
    points

let test_miscompile_fleet () =
  List.iter
    (fun point ->
      let r = Chaos.miscompile_fleet_scenario ~seed:1 ~point () in
      Alcotest.(check bool)
        (point ^ ": fleet containment held")
        true (Chaos.mc_fleet_passed r);
      match r with
      | Chaos.Mc_fleet_contained { mf_tier; _ } ->
        let want_tier =
          if point = "bolt.miscompile.jump_table" then `Shadow else `Validate
        in
        Alcotest.(check bool) (point ^ ": caught by the expected tier") true
          (mf_tier = want_tier)
      | _ -> Alcotest.fail (point ^ ": not contained"))
    [ "bolt.miscompile.drop_block"; "bolt.miscompile.jump_table" ]

(* ---- satellite: Guard quarantine survives a fleet restart ---- *)

(* The smallest code address each of [fid]'s symbol ranges starts at — a
   function BOLT relocated gains a range up in the BOLT text region, so an
   unchanged minimum start across a campaign means "not reordered". *)
let fid_ranges (proc : Proc.t) fid =
  Array.to_list proc.Proc.mem.Addr_space.sym_index
  |> List.filter_map (fun (r : Addr_space.sym_range) ->
         if r.Addr_space.sr_fid = fid then Some (r.Addr_space.sr_start, r.Addr_space.sr_end)
         else None)
  |> List.sort compare

let test_fleet_restart_carries_quarantine () =
  let base = Apps.tiny ~tx_limit:None () in
  let w =
    Workload.build ~no_jump_tables:false ~name:"tiny-jt" ~inputs:base.Workload.inputs
      ~nthreads:2 base.Workload.gen
  in
  let fault = F.create ~seed:3 () in
  F.arm fault "bolt.miscompile.branch_polarity" (F.Nth 1);
  let ocfg = { O.default_config with O.fault = Some fault } in
  let fcfg =
    { Fleet.default_config with
      Fleet.daemon =
        { Daemon.default_config with
          Daemon.profile_s = 1.0;
          warmup_s = 0.5;
          min_interval_s = 2.0 };
      max_ipc_drop = 1.0;
      max_p99_rise = infinity }
  in
  let procs =
    Array.init 4 (fun i ->
        Workload.launch ~seed:(3 + i) w
          ~input:(Workload.find_input w (if i mod 2 = 0 then "a" else "b")))
  in
  let fleet = Fleet.create ~config:fcfg ~ocolos_config:ocfg procs in
  let step i =
    Array.iter (fun p -> Proc.run ~cycle_limit:infinity ~max_instrs:12_000 p) procs;
    float_of_int (i + 1)
  in
  let aborted = ref None in
  (try
     for i = 0 to 29 do
       let now_s = step i in
       match Fleet.tick fleet ~now_s with
       | Fleet.Campaign_aborted reason
         when String.starts_with ~prefix:"validation rejected" reason ->
         aborted := Some i;
         raise Exit
       | Fleet.Promoted _ -> Alcotest.fail "corrupted result promoted"
       | _ -> ()
     done
   with Exit -> ());
  let ticks = match !aborted with Some i -> i + 1 | None -> Alcotest.fail "never aborted" in
  let quarantined = Guard.quarantined (Fleet.guard fleet) in
  Alcotest.(check bool) "rejection quarantined the offender" true (quarantined <> []);
  let before = List.map (fun fid -> (fid, fid_ranges procs.(0) fid)) quarantined in
  (* Restart with the old guard, like an on-disk sidecar carried across. *)
  let fleet' =
    Supervisor.restart_fleet ~config:fcfg ~ocolos_config:ocfg
      ~guard:(Fleet.guard fleet) procs
  in
  Alcotest.(check (list int))
    "quarantine carried across the restart" quarantined
    (Guard.quarantined (Fleet.guard fleet'));
  (* The armed corruption is spent; the restarted fleet must re-BOLT
     without the quarantined functions and promote a valid layout. *)
  (match
     Supervisor.run_fleet_to_convergence fleet'
       ~step:(fun i -> step (ticks + i))
       ~max_ticks:40
   with
  | Supervisor.Converged_replaced { version; _ } ->
    Alcotest.(check int) "post-restart campaign promoted C1" 1 version
  | c -> Alcotest.fail ("restarted fleet did not promote: " ^ Supervisor.convergence_to_string c));
  Alcotest.(check bool) "fleet homogeneous" true (Fleet.converged fleet');
  List.iter
    (fun (fid, ranges) ->
      Alcotest.(check bool)
        (Fmt.str "quarantined f%d stayed excluded from the re-BOLT" fid)
        true
        (fid_ranges procs.(0) fid = ranges))
    before;
  Alcotest.(check (list int))
    "quarantine permanent after promotion" quarantined
    (Guard.quarantined (Fleet.guard fleet'))

(* ---- satellite: Perf2bolt.decimate edge cases ---- *)

let sample i =
  { Perf.s_tid = i; entries = [| { Lbr.from_addr = 100 + i; to_addr = 200 + i } |] }

let test_decimate_edges () =
  let samples = List.init 3 sample in
  (* Decimation stride exceeding the sample count: only the phase-aligned
     batch (if any) survives. *)
  Alcotest.(check int) "keep_every > count keeps the aligned batch" 1
    (List.length (Perf2bolt.decimate ~keep_every:5 ~phase:0 samples));
  Alcotest.(check int) "phase beyond the stream keeps nothing" 0
    (List.length (Perf2bolt.decimate ~keep_every:5 ~phase:4 samples));
  Alcotest.(check bool) "empty stream decimates to empty" true
    (Perf2bolt.decimate ~keep_every:7 ~phase:2 [] = []);
  (* Single-replica fleet: keep_every = 1 is the identity. *)
  Alcotest.(check bool) "keep_every = 1 is identity" true
    (Perf2bolt.decimate ~keep_every:1 ~phase:0 samples == samples);
  (* Phases partition the stream exactly. *)
  let all = List.init 7 sample in
  let parts = List.init 3 (fun phase -> Perf2bolt.decimate ~keep_every:3 ~phase all) in
  Alcotest.(check int) "phases partition the stream" (List.length all)
    (List.length (List.concat parts));
  (* Schedule validation. *)
  (match Perf2bolt.decimate ~keep_every:0 ~phase:0 samples with
  | _ -> Alcotest.fail "keep_every = 0 accepted"
  | exception Invalid_argument _ -> ());
  (match Perf2bolt.decimate ~keep_every:3 ~phase:3 samples with
  | _ -> Alcotest.fail "phase = keep_every accepted"
  | exception Invalid_argument _ -> ());
  match Perf2bolt.decimate ~keep_every:3 ~phase:(-1) samples with
  | _ -> Alcotest.fail "negative phase accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [ Alcotest.test_case "valid result passes Tier 1" `Quick test_valid_result_passes;
    Alcotest.test_case "Tier 1 catches each corruption mode" `Quick
      test_tier1_catches_corruptions;
    Alcotest.test_case "Tier 1 rejects across salts" `Quick test_tier1_rejects_across_salts;
    Alcotest.test_case "Tier 1 reports pinned across the catalog" `Quick
      test_tier1_reports_pinned;
    Alcotest.test_case "shared CFG memo untouched" `Quick test_shared_cfgs_untouched;
    Alcotest.test_case "shadow matches a valid commit" `Quick
      test_shadow_match_on_valid_commit;
    Alcotest.test_case "shadow reverts the jump_table blind spot" `Quick
      test_jump_table_caught_by_shadow;
    Alcotest.test_case "miscompile chaos property" `Slow test_miscompile_chaos_property;
    Alcotest.test_case "miscompile chaos on other engines" `Slow
      test_miscompile_chaos_engines;
    Alcotest.test_case "miscompile fleet containment" `Slow test_miscompile_fleet;
    Alcotest.test_case "fleet restart carries quarantine" `Quick
      test_fleet_restart_carries_quarantine;
    Alcotest.test_case "decimate edge cases" `Quick test_decimate_edges ]
