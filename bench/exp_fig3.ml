(* Fig. 3: input sensitivity of offline BOLT.

   MySQL runs the read_only input; BOLT binaries are produced from profiles
   of each training input (plus the merged "all" profile). OCOLOS, which
   always profiles the current input, should match the best offline
   profile. *)

open Ocolos_workloads
open Ocolos_util
module Measure = Ocolos_sim.Measure

let run () =
  Table.section "Fig. 3 — BOLT profile-input sensitivity (MySQL running read_only)";
  let w = Lazy.force Common.mysql in
  let target = Workload.find_input w "read_only" in
  let orig = Common.steady_orig w target in
  let rows = ref [] in
  List.iter
    (fun (train : Input.t) ->
      Common.progress "fig3: training on %s" train.Input.name;
      let bolted = Common.bolt_oracle w train in
      let s =
        Common.steady w ~binary:bolted ~variant:("fig3-" ^ train.Input.name) target
      in
      rows := (train.Input.name, s.Measure.tps) :: !rows)
    w.Workload.inputs;
  let all = Common.bolt_avg w in
  let s_all = Common.steady w ~binary:all ~variant:"fig3-all" target in
  rows := ("all (merged)", s_all.Measure.tps) :: !rows;
  let oco = Common.ocolos w target in
  let rows = List.rev !rows in
  let best = List.fold_left (fun acc (_, t) -> Float.max acc t) 0.0 rows in
  Table.print
    ~headers:[| "training input"; "read_only tps"; "vs original"; "vs best profile" |]
    (List.map
       (fun (name, tps) ->
         [| name;
            Table.fmt_f ~digits:0 tps;
            Table.fmt_speedup (tps /. orig.Measure.tps);
            Table.fmt_pct (tps /. best) |])
       rows);
  Printf.printf "\noriginal (no BOLT): %.0f tps [dashed line]\n" orig.Measure.tps;
  Printf.printf "OCOLOS (online, profiles the live input): %.0f tps = %.2fx original [solid line]\n"
    oco.Measure.post.Measure.tps
    (oco.Measure.post.Measure.tps /. orig.Measure.tps);
  let worst = List.fold_left (fun acc (_, t) -> Float.min acc t) infinity rows in
  Printf.printf "worst training input is %.0f%% below the best; OCOLOS reaches %.0f%% of best\n"
    (100.0 *. (1.0 -. (worst /. best)))
    (100.0 *. oco.Measure.post.Measure.tps /. best)
