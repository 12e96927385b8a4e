(* Tests for the disassembler and a few remaining edge cases across the
   toolkit. *)

open Ocolos_workloads

(* Substring search (no external string library needed). *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_disasm_function () =
  let w = Apps.tiny () in
  let b = w.Workload.binary in
  let out = Ocolos_binary.Disasm.function_to_string b w.Workload.gen.Gen.main_fid in
  Alcotest.(check bool) "names function" true
    (contains out "<main_loop>");
  Alcotest.(check bool) "shows blocks" true (contains out ".bb");
  Alcotest.(check bool) "symbolizes parser call" true
    (contains out "<parse_query>")


let test_disasm_whole_binary () =
  let w = Apps.tiny () in
  let out = Fmt.str "%a" Ocolos_binary.Disasm.pp w.Workload.binary in
  (* Every function appears. *)
  Array.iter
    (fun (s : Ocolos_binary.Binary.func_sym) ->
      Alcotest.(check bool) s.Ocolos_binary.Binary.fs_name true
        (contains out ("<" ^ s.Ocolos_binary.Binary.fs_name ^ ">")))
    w.Workload.binary.Ocolos_binary.Binary.symbols


let test_disasm_split_function_marked () =
  (* BOLT a binary and disassemble an optimized, split function. *)
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let session = Ocolos_profiler.Perf.start proc in
  Ocolos_proc.Proc.run ~cycle_limit:200_000.0 proc;
  let profile =
    Ocolos_profiler.Perf2bolt.convert ~binary:w.Workload.binary
      (Ocolos_profiler.Perf.stop session)
  in
  let r = Ocolos_bolt.Bolt.run ~binary:w.Workload.binary ~profile () in
  let merged = Ocolos_bolt.Bolt.merge ~binary:w.Workload.binary r in
  let split_fid =
    Array.find_opt
      (fun (s : Ocolos_binary.Binary.func_sym) ->
        List.length s.Ocolos_binary.Binary.fs_ranges >= 3)
      merged.Ocolos_binary.Binary.symbols
    (* merged symbols carry new hot+cold ranges plus the old C0 range *)
  in
  match split_fid with
  | Some s ->
    let out =
      Ocolos_binary.Disasm.function_to_string merged
        s.Ocolos_binary.Binary.fs_fid
    in
    Alcotest.(check bool) "split marker" true (contains out "split")
  | None -> () (* no function was split in this profile; nothing to check *)

let suite =
  [ Alcotest.test_case "disasm function" `Quick test_disasm_function;
    Alcotest.test_case "disasm whole binary" `Quick test_disasm_whole_binary;
    Alcotest.test_case "disasm split function" `Quick test_disasm_split_function_marked ]
