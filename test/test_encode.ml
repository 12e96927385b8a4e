(* Tests for the instruction codec and binary serialization. *)

open Ocolos_isa
open Ocolos_workloads

let roundtrip i =
  let buf = Buffer.create 16 in
  Encode.encode buf i;
  let r = Encode.reader_of_bytes (Buffer.to_bytes buf) in
  let i' = Encode.decode r in
  Alcotest.(check bool) (Instr.to_string i) true (i = i' && Encode.at_end r)

let test_encode_roundtrip_each () =
  List.iter roundtrip
    [ Instr.Nop;
      Instr.Alu (Instr.Shr, 15, 0, 9);
      Instr.Alui (Instr.And, 4, 4, (1 lsl 19) - 1);
      Instr.Alui (Instr.Sub, 1, 2, -12345);
      Instr.Movi (3, 0);
      Instr.Load (1, 10, 0x1000 + 999);
      Instr.Store (9, 11, 4095);
      Instr.Branch (Instr.Le, 7, 0xA00000);
      Instr.Jump 0x7FFFFFFF;
      Instr.JumpInd 15;
      Instr.Call 0x10000;
      Instr.CallInd 14;
      Instr.Ret;
      Instr.FpCreate (14, 0x200010);
      Instr.VtLoad (14, 6, 39);
      Instr.Rand (0, 1000);
      Instr.TxMark;
      Instr.Halt ]

let test_varint_extremes () =
  let check v =
    let buf = Buffer.create 10 in
    Encode.put_varint buf v;
    let r = Encode.reader_of_bytes (Buffer.to_bytes buf) in
    Alcotest.(check int) (string_of_int v) v (Encode.read_varint r)
  in
  List.iter check [ 0; 1; -1; 63; 64; -64; -65; max_int / 2; -(max_int / 2); 0xFFFFFF ]

let test_decode_error_on_garbage () =
  let r = Encode.reader_of_bytes (Bytes.of_string "\xFF\xFF") in
  Alcotest.(check bool) "raises" true
    (match Encode.decode r with exception Encode.Decode_error _ -> true | _ -> false)

let test_decode_error_on_truncation () =
  let buf = Buffer.create 8 in
  Encode.encode buf (Instr.Jump 0x123456);
  let whole = Buffer.to_bytes buf in
  let cut = Bytes.sub whole 0 (Bytes.length whole - 1) in
  let r = Encode.reader_of_bytes cut in
  Alcotest.(check bool) "raises" true
    (match Encode.decode r with exception Encode.Decode_error _ -> true | _ -> false)

(* Serializing a real workload binary round-trips every component. *)
let test_serialize_roundtrip () =
  let w = Apps.tiny () in
  let b = w.Workload.binary in
  let b' = Ocolos_binary.Serialize.of_bytes (Ocolos_binary.Serialize.to_bytes b) in
  Alcotest.(check string) "name" b.Ocolos_binary.Binary.name b'.Ocolos_binary.Binary.name;
  Alcotest.(check int) "entry" b.Ocolos_binary.Binary.entry b'.Ocolos_binary.Binary.entry;
  Alcotest.(check int) "instr count"
    (Ocolos_binary.Binary.instr_count b)
    (Ocolos_binary.Binary.instr_count b');
  Alcotest.(check bool) "code identical" true
    (Ocolos_util.Codemap.fold
       (fun addr i same -> same && Ocolos_binary.Binary.find_instr b' addr = Some i)
       b.Ocolos_binary.Binary.code true);
  Alcotest.(check bool) "symbols identical" true
    (b.Ocolos_binary.Binary.symbols = b'.Ocolos_binary.Binary.symbols);
  Alcotest.(check bool) "vtables identical" true
    (b.Ocolos_binary.Binary.vtables = b'.Ocolos_binary.Binary.vtables);
  Alcotest.(check bool) "globals identical" true
    (b.Ocolos_binary.Binary.global_init = b'.Ocolos_binary.Binary.global_init);
  Alcotest.(check int) "debug size"
    (Ocolos_util.Codemap.length b.Ocolos_binary.Binary.debug)
    (Ocolos_util.Codemap.length b'.Ocolos_binary.Binary.debug)

(* A reloaded binary is behaviourally identical. *)
let test_serialized_binary_runs () =
  let w = Apps.tiny ~tx_limit:(Some 100) () in
  let input = Workload.find_input w "a" in
  let run binary =
    let proc = Workload.launch w ~binary ~input in
    Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:40_000_000 proc;
    Workload.checksums proc
  in
  let b' =
    Ocolos_binary.Serialize.of_bytes (Ocolos_binary.Serialize.to_bytes w.Workload.binary)
  in
  Alcotest.(check (list int)) "same behaviour" (run w.Workload.binary) (run b')

(* Save/load through an actual file, including a BOLTed (merged) image. *)
let test_save_load_file () =
  let w = Apps.tiny () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let session = Ocolos_profiler.Perf.start proc in
  Ocolos_proc.Proc.run ~cycle_limit:150_000.0 proc;
  let profile =
    Ocolos_profiler.Perf2bolt.convert ~binary:w.Workload.binary
      (Ocolos_profiler.Perf.stop session)
  in
  let r = Ocolos_bolt.Bolt.run ~binary:w.Workload.binary ~profile () in
  let merged = Ocolos_bolt.Bolt.merge ~binary:w.Workload.binary r in
  let path = Filename.temp_file "ocolos" ".oclb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ocolos_binary.Serialize.save path merged;
      let b' = Ocolos_binary.Serialize.load path in
      Alcotest.(check bool) "reloaded image writes the same bytes" true
        (Bytes.equal
           (Ocolos_binary.Serialize.to_bytes merged)
           (Ocolos_binary.Serialize.to_bytes b'));
      Alcotest.(check int) "entry preserved"
        merged.Ocolos_binary.Binary.entry
        b'.Ocolos_binary.Binary.entry;
      Alcotest.(check int) "sections preserved"
        (List.length merged.Ocolos_binary.Binary.sections)
        (List.length b'.Ocolos_binary.Binary.sections))

(* A minimal image by hand: no sections, symbols, v-tables, globals or
   debug info, and one [Nop] per code address delta. *)
let image_with_deltas deltas =
  let buf = Buffer.create 64 in
  let v = Encode.put_varint buf in
  Buffer.add_string buf "OCLB\001";
  v 1;
  Buffer.add_string buf "x";
  v 0;
  v (List.length deltas);
  List.iter
    (fun d ->
      v d;
      Encode.encode buf Instr.Nop)
    deltas;
  List.iter v [ 0; 0; 0; 0; 0; 0; 0 ];
  Buffer.to_bytes buf

let test_corrupt_image_rejected () =
  let rejected bytes =
    match Ocolos_binary.Serialize.of_bytes bytes with
    | exception Ocolos_binary.Serialize.Corrupt _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad magic" true (rejected (Bytes.of_string "NOPE"));
  Alcotest.(check int) "ascending addresses load" 2
    (Ocolos_binary.Binary.instr_count
       (Ocolos_binary.Serialize.of_bytes (image_with_deltas [ 16; 4 ])));
  Alcotest.(check bool) "repeated address" true (rejected (image_with_deltas [ 16; 0 ]));
  Alcotest.(check bool) "descending address" true (rejected (image_with_deltas [ 16; -4 ]))

(* qcheck: codec round-trips arbitrary well-formed instructions. *)
let instr_arbitrary =
  let open QCheck.Gen in
  let reg = int_bound 15 in
  let gen =
    oneof
      [ return Instr.Nop;
        map3 (fun d a b -> Instr.Alu (Instr.Add, d, a, b)) reg reg reg;
        map3 (fun d a imm -> Instr.Alui (Instr.Xor, d, a, imm)) reg reg (int_range (-100000) 100000);
        map2 (fun d imm -> Instr.Movi (d, imm)) reg (int_bound 10_000_000);
        map3 (fun d b off -> Instr.Load (d, b, off)) reg reg (int_bound 100_000);
        map3 (fun s b off -> Instr.Store (s, b, off)) reg reg (int_bound 100_000);
        map2 (fun r t -> Instr.Branch (Instr.Lt, r, t)) reg (int_bound 100_000_000);
        map (fun t -> Instr.Jump t) (int_bound 100_000_000);
        map (fun r -> Instr.JumpInd r) reg;
        map (fun t -> Instr.Call t) (int_bound 100_000_000);
        map (fun r -> Instr.CallInd r) reg;
        return Instr.Ret;
        map2 (fun d t -> Instr.FpCreate (d, t)) reg (int_bound 100_000_000);
        map3 (fun d v s -> Instr.VtLoad (d, v, s)) reg (int_bound 1000) (int_bound 1000);
        map2 (fun d b -> Instr.Rand (d, b + 1)) reg (int_bound 10_000);
        return Instr.TxMark;
        return Instr.Halt ]
  in
  QCheck.make ~print:Instr.to_string gen

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip" ~count:500 (QCheck.list_of_size
    (QCheck.Gen.int_range 1 20) instr_arbitrary) (fun instrs ->
      let buf = Buffer.create 64 in
      List.iter (Encode.encode buf) instrs;
      let r = Encode.reader_of_bytes (Buffer.to_bytes buf) in
      let decoded = List.map (fun _ -> Encode.decode r) instrs in
      decoded = instrs && Encode.at_end r)

(* [Instr.equal], the monomorphic equality the BOLT passes compare with,
   agrees with structural equality: on arbitrary pairs, and on an
   instruction against its decoded (physically distinct) copy. *)
let prop_instr_equal_is_structural =
  QCheck.Test.make ~name:"Instr.equal is structural equality" ~count:500
    (QCheck.pair instr_arbitrary instr_arbitrary) (fun (a, b) ->
      let buf = Buffer.create 16 in
      Encode.encode buf a;
      let copy = Encode.decode (Encode.reader_of_bytes (Buffer.to_bytes buf)) in
      Instr.equal a b = (a = b) && Instr.equal a copy && Instr.equal b b)

let suite =
  [ Alcotest.test_case "roundtrip each opcode" `Quick test_encode_roundtrip_each;
    Alcotest.test_case "varint extremes" `Quick test_varint_extremes;
    Alcotest.test_case "decode error on garbage" `Quick test_decode_error_on_garbage;
    Alcotest.test_case "decode error on truncation" `Quick test_decode_error_on_truncation;
    Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
    Alcotest.test_case "serialized binary runs" `Quick test_serialized_binary_runs;
    Alcotest.test_case "save/load file" `Quick test_save_load_file;
    Alcotest.test_case "corrupt image rejected" `Quick test_corrupt_image_rejected;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_instr_equal_is_structural ]
