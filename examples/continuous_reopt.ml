(* Continuous optimization (paper Section IV-C, implemented here although
   the paper could not evaluate it): the server's input mix shifts at run
   time; OCOLOS re-profiles the already-optimized process, replaces C1 with
   C2 through the gated step (validate, shadow-check, commit), migrates
   stack-live frames, and garbage-collects the old version so code memory
   does not grow.

     dune exec examples/continuous_reopt.exe *)

open Ocolos_workloads
module Proc = Ocolos_proc.Proc
module Ocolos = Ocolos_core.Ocolos
module Clock = Ocolos_sim.Clock

let () =
  let w = Apps.mysql_like () in
  let proc = Workload.launch w ~input:(Workload.find_input w "point_select") in
  let oc = Ocolos.attach proc in
  let horizon = ref 0.0 in
  let advance s =
    horizon := !horizon +. s;
    Proc.run ~cycle_limit:(Clock.seconds_to_cycles !horizon) proc
  in
  let tps_over s =
    let t0 = Proc.transactions proc in
    advance s;
    float_of_int (Proc.transactions proc - t0) /. s
  in
  let optimize label =
    Ocolos.start_profiling oc;
    advance 2.0;
    let profile, _ = Ocolos.stop_profiling oc in
    (* BOLT, Tier-1 validation, then the shadow-gated transaction. *)
    let s =
      match Ocolos_core.Step.optimize oc profile with
      | Ok s -> s
      | Error reason -> failwith (label ^ ": " ^ reason)
    in
    Fmt.pr
      "%s -> C%d: %d funcs optimized, %d sites + %d v-table entries patched, %d frames migrated, GC freed %d bytes@."
      label s.Ocolos.version s.Ocolos.funcs_optimized s.Ocolos.call_sites_patched
      s.Ocolos.vtable_entries_patched s.Ocolos.frames_migrated s.Ocolos.gc_bytes_freed;
    s
  in
  let code_bytes () = proc.Proc.mem.Ocolos_proc.Addr_space.code_bytes in
  advance 0.5;
  Fmt.pr "phase 1  input=point_select  code=C0  tps=%.0f  code bytes=%d@." (tps_over 1.5)
    (code_bytes ());
  ignore (optimize "replace");
  Fmt.pr "phase 2  input=point_select  code=C1  tps=%.0f  code bytes=%d@." (tps_over 1.5)
    (code_bytes ());

  (* The workload shifts: the daily pattern changes from reads to writes
     (the staleness problem offline PGO cannot follow). *)
  Workload.set_input w proc (Workload.find_input w "write_only");
  advance 0.3;
  Fmt.pr "phase 3  input=write_only    code=C1 (stale profile)  tps=%.0f@." (tps_over 1.5);
  ignore (optimize "replace");
  Fmt.pr "phase 4  input=write_only    code=C2  tps=%.0f  code bytes=%d@." (tps_over 1.5)
    (code_bytes ());

  (* One more shift and round, to show code memory stays bounded. *)
  Workload.set_input w proc (Workload.find_input w "read_write");
  advance 0.3;
  ignore (optimize "replace");
  Fmt.pr "phase 5  input=read_write    code=C3  tps=%.0f  code bytes=%d@." (tps_over 1.5)
    (code_bytes ());
  Fmt.pr
    "@.code memory is stable across versions: each round's GC unmaps the previous version@."
