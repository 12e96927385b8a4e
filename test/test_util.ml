(* Unit tests for ocolos_util: PRNG, statistics, table rendering, fault
   registry. *)

open Ocolos_util

(* ---- fault registry: schedule validation, domains, lethal arming ---- *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let test_fault_schedule_validation () =
  let ok s = Alcotest.(check bool) "accepted" true (Fault.validate_schedule s = Ok ()) in
  ok (Fault.Nth 1);
  ok (Fault.Every 1);
  ok (Fault.Prob 1.0);
  ok (Fault.Prob 0.001);
  ok Fault.Never;
  let rejected s reason_frag =
    match Fault.validate_schedule s with
    | Ok () -> Alcotest.fail "vacuous schedule accepted"
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "reason %S mentions %S" msg reason_frag)
        true
        (contains ~affix:reason_frag msg)
  in
  rejected (Fault.Nth 0) ">= 1";
  rejected (Fault.Nth (-3)) "-3";
  rejected (Fault.Every 0) ">= 1";
  rejected (Fault.Prob 0.0) "(0, 1]";
  rejected (Fault.Prob 1.5) "1.5";
  rejected (Fault.Prob (-0.1)) "(0, 1]";
  let f = Fault.create () in
  Alcotest.check_raises "arm rejects" (Invalid_argument "Fault.arm pause: nth must be >= 1 (got 0)")
    (fun () -> Fault.arm f "pause" (Fault.Nth 0));
  Alcotest.check_raises "kill rejects too"
    (Invalid_argument "Fault.arm pause: every must be >= 1 (got 0)") (fun () ->
      Fault.kill f "pause" (Fault.Every 0))

let test_fault_parse_arm () =
  let f = Fault.create ~seed:1 () in
  Alcotest.(check (result string string)) "bare point" (Ok "pause") (Fault.parse_arm f "pause");
  Alcotest.(check (result string string)) "nth" (Ok "inject_code")
    (Fault.parse_arm f "inject_code:3");
  Alcotest.(check (result string string)) "every" (Ok "perf.sample_drop")
    (Fault.parse_arm f "perf.sample_drop:every:2");
  Alcotest.(check (result string string)) "prob" (Ok "commit")
    (Fault.parse_arm f "commit:p:0.5");
  let rejects spec =
    match Fault.parse_arm f spec with
    | Ok p -> Alcotest.fail (Printf.sprintf "%S accepted as %S" spec p)
    | Error msg -> Alcotest.(check bool) "descriptive" true (String.length msg > 10)
  in
  rejects "pause:0";
  rejects "pause:every:0";
  rejects "pause:p:0";
  rejects "pause:p:1.5";
  rejects "pause:p:zero";
  rejects "pause:sometimes";
  (* Successful parses are armed: nth 1 fires on the first cut. *)
  (try
     Fault.cut f "pause";
     Alcotest.fail "armed point did not fire"
   with Fault.Injected ("pause", 1) -> ());
  Alcotest.(check int) "fired once" 1 (Fault.fired f "pause")

let test_fault_domains () =
  Alcotest.(check string) "dotted" "perf" (Fault.domain_of "perf.sample_drop");
  Alcotest.(check string) "dotted 2" "bolt" (Fault.domain_of "bolt.func_reorder");
  Alcotest.(check string) "undotted is txn" "txn" (Fault.domain_of "pause");
  Alcotest.(check string) "undotted is txn 2" "txn" (Fault.domain_of "osr_frame")

let test_fault_lethal () =
  let f = Fault.create () in
  Fault.kill f "inject_code" (Fault.Nth 2);
  Alcotest.(check bool) "lethal" true (Fault.lethal f "inject_code");
  Fault.cut f "inject_code";
  (* A survivable-fault handler must not absorb a kill. *)
  let escaped =
    try
      (try Fault.cut f "inject_code" with Fault.Injected _ -> ());
      false
    with Fault.Killed ("inject_code", 2) -> true
  in
  Alcotest.(check bool) "Killed escapes Injected handlers" true escaped;
  Fault.disarm f "inject_code";
  Alcotest.(check bool) "disarm clears lethal" false (Fault.lethal f "inject_code");
  Fault.cut f "inject_code"

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in bounds" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 3 9 in
    Alcotest.(check bool) "in range" true (v >= 3 && v <= 9)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_bool_bias () =
  let rng = Rng.create 9 in
  let n = 10000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool rng 0.8 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "close to 0.8" true (frac > 0.77 && frac < 0.83)

let test_rng_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_weighted_index () =
  let rng = Rng.create 3 in
  let w = [| 0.0; 5.0; 0.0; 5.0 |] in
  for _ = 1 to 500 do
    let i = Rng.weighted_index rng w in
    Alcotest.(check bool) "only nonzero weights" true (i = 1 || i = 3)
  done

let test_shuffle_permutation () =
  let rng = Rng.create 5 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "stddev" (sqrt 2.5) (Stats.stddev xs);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0)

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_linear_regression () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 3.0; 5.0; 7.0; 9.0 |] in
  let fit = Stats.linear_regression xs ys in
  Alcotest.(check (float 1e-9)) "slope" 2.0 fit.Stats.slope;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 fit.Stats.intercept;
  Alcotest.(check (float 1e-9)) "r2" 1.0 fit.Stats.r2

let test_perceptron_separable () =
  (* Linearly separable: label = x1 > x2. *)
  let points =
    List.init 40 (fun i ->
        let x1 = float_of_int (i mod 7) /. 7.0 and x2 = float_of_int (i mod 5) /. 5.0 in
        (x1, x2, x1 > x2))
  in
  let c = Stats.train_perceptron points in
  Alcotest.(check bool) "high accuracy" true (Stats.accuracy c points >= 0.9)

let test_table_render () =
  let out =
    Table.render ~headers:[| "a"; "b" |] [ [| "xx"; "1" |]; [| "y"; "23" |] ]
  in
  Alcotest.(check bool) "has header" true (String.length out > 0);
  Alcotest.(check bool) "aligned rows" true
    (List.length (String.split_on_char '\n' out) >= 4)

let test_fmt_int () =
  Alcotest.(check string) "thousands" "31,677" (Table.fmt_int 31677);
  Alcotest.(check string) "small" "42" (Table.fmt_int 42);
  Alcotest.(check string) "million" "1,234,567" (Table.fmt_int 1234567)

(* The splitmix64 stream is pinned: 8 [bits], then 8 [int _ 1000], then 8
   [float] draws from one generator, recorded from the original boxed-[int64]
   implementation. Every seeded simulation depends on this exact stream. *)
let draws g =
  let bits = List.init 8 (fun _ -> Rng.bits g) in
  let ints = List.init 8 (fun _ -> Rng.int g 1000) in
  let floats = List.init 8 (fun _ -> Rng.float g) in
  (bits, ints, floats)

let check_draws ctx g (bits, ints, floats) =
  let b, i, f = draws g in
  Alcotest.(check (list int)) (ctx ^ ": bits") bits b;
  Alcotest.(check (list int)) (ctx ^ ": int") ints i;
  Alcotest.(check (list (float 0.0))) (ctx ^ ": float") floats f

let test_rng_stream_pinned () =
  check_draws "create 1" (Rng.create 1)
    ( [ 2612804094800205616; 3439311302766607129; 4477959822570722647; 2049245188455445058;
        2048809309281742190; 3518229400716132512; 4046056672035966761; 2412221600017015133 ],
      [ 130; 237; 184; 967; 696; 130; 954; 934 ],
      [ 0x1.4a694d4d6ffa1p-1; 0x1.a175a1b4ae575p-1; 0x1.5d086f2c615f1p-1; 0x1.c4c6306ee7dedp-1;
        0x1.0e2c46865e987p-4; 0x1.4d7973c5c2a45p-4; 0x1.fbc7f43b45524p-2; 0x1.f8410633ef307p-4 ]
    );
  check_draws "split child" (Rng.split (Rng.create 1))
    ( [ 1697974441462356039; 4351421970967641211; 208711063701529438; 3585294967163882218;
        1010490182052961684; 3571285832659384565; 2888144938624116674; 1138925969771747374 ],
      [ 874; 520; 528; 214; 184; 381; 952; 776 ],
      [ 0x1.f6f43ddab0d26p-1; 0x1.990ad13227d6bp-1; 0x1.ef913c21ebcc2p-2; 0x1.659b9433bfecp-4;
        0x1.39db1038cdecbp-1; 0x1.4519631c9b699p-3; 0x1.67f1d4274c546p-1; 0x1.bdca3c20d3df9p-1 ]
    );
  (* A copy of a generator three draws in replays the parent's stream from
     there, and drawing from the copy leaves the original untouched. *)
  let orig = Rng.create 1 in
  for _ = 1 to 3 do
    ignore (Rng.bits orig)
  done;
  let copy = Rng.copy orig in
  check_draws "copy" copy
    ( [ 2049245188455445058; 2048809309281742190; 3518229400716132512; 4046056672035966761;
        2412221600017015133; 1316676407973089130; 3661663045011659237; 1863776790465844184 ],
      [ 967; 696; 130; 954; 934; 888; 60; 3 ],
      [ 0x1.c4c6306ee7dedp-1; 0x1.0e2c46865e987p-4; 0x1.4d7973c5c2a45p-4; 0x1.fbc7f43b45524p-2;
        0x1.f8410633ef307p-4; 0x1.25cc171746aaep-2; 0x1.88680fb82ef6ep-5; 0x1.07f2394f0c94ep-1 ]
    );
  Alcotest.(check int) "original unmoved by the copy's draws" 2049245188455445058
    (Rng.bits orig)

(* [Itbl] against a [Hashtbl] model: random binds, removes, lookups, full
   scans and copies. Keys are drawn mostly from a narrow range, so removed
   keys come back (tombstone reuse), and sometimes from wide ones,
   negative keys included, so the table grows past its initial 16 slots.
   Values are boxed strings: a copy that shared its value array with its
   source would see the source's later rebinds. Every copy is checked
   against a frozen model copy at the end, after the source and the copy
   were both written. *)
type itbl_op =
  | Bind of int * int
  | Unbind of int
  | Lookup of int
  | Scan
  | Copy
  | Bind_copy of int * int

let pp_itbl_op = function
  | Bind (k, v) -> Printf.sprintf "bind %d %d" k v
  | Unbind k -> Printf.sprintf "unbind %d" k
  | Lookup k -> Printf.sprintf "lookup %d" k
  | Scan -> "scan"
  | Copy -> "copy"
  | Bind_copy (k, v) -> Printf.sprintf "bind-copy %d %d" k v

let itbl_ops =
  let open QCheck.Gen in
  let key =
    frequency
      [ (8, int_bound 24);
        (2, int_bound 500);
        (1, map (fun k -> k - (1 lsl 40)) (int_bound (1 lsl 41))) ]
  in
  let op =
    frequency
      [ (6, map2 (fun k v -> Bind (k, v)) key (int_bound 1000));
        (3, map (fun k -> Unbind k) key);
        (3, map (fun k -> Lookup k) key);
        (1, return Scan);
        (1, return Copy);
        (2, map2 (fun k v -> Bind_copy (k, v)) key (int_bound 1000)) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_itbl_op ops))
    (list_size (int_range 1 400) op)

let prop_itbl_matches_model =
  QCheck.Test.make ~name:"itbl matches a Hashtbl model" ~count:300 itbl_ops (fun ops ->
      let module Itbl = Ocolos_util.Itbl in
      let t = Itbl.create 1 and m = Hashtbl.create 16 in
      let copies = ref [] in
      let same t m =
        Itbl.length t = Hashtbl.length m
        && List.sort compare (Itbl.fold (fun k v acc -> (k, v) :: acc) t [])
           = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])
      in
      let ok = ref true in
      List.iter
        (function
          | Bind (k, v) ->
            Itbl.replace t k (string_of_int v);
            Hashtbl.replace m k (string_of_int v)
          | Unbind k ->
            Itbl.remove t k;
            Hashtbl.remove m k
          | Lookup k ->
            let want = Hashtbl.find_opt m k in
            if
              Itbl.find_opt t k <> want
              || Itbl.mem t k <> (want <> None)
              || Itbl.find_default t k ~default:"none" <> Option.value ~default:"none" want
            then ok := false
          | Scan -> if not (same t m) then ok := false
          | Copy -> copies := (Itbl.copy t, Hashtbl.copy m) :: !copies
          | Bind_copy (k, v) -> (
            match !copies with
            | (c, cm) :: _ ->
              Itbl.replace c k (string_of_int v);
              Hashtbl.replace cm k (string_of_int v)
            | [] -> ()))
        ops;
      !ok && same t m && List.for_all (fun (c, cm) -> same c cm) !copies)

(* [replace_int] shares the table with the generic paths: the same op
   sequences on an [int Itbl.t], each bind going through [replace_int] or
   [replace] by the value's parity. *)
let prop_itbl_int_matches_model =
  QCheck.Test.make ~name:"itbl replace_int matches a Hashtbl model" ~count:300 itbl_ops (fun ops ->
      let module Itbl = Ocolos_util.Itbl in
      let t = Itbl.create 1 and m = Hashtbl.create 16 in
      let copies = ref [] in
      let bind t m k v =
        if v land 1 = 0 then Itbl.replace_int t k v else Itbl.replace t k v;
        Hashtbl.replace m k v
      in
      let same t m =
        Itbl.length t = Hashtbl.length m
        && List.sort compare (Itbl.fold (fun k v acc -> (k, v) :: acc) t [])
           = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])
      in
      let ok = ref true in
      List.iter
        (function
          | Bind (k, v) -> bind t m k v
          | Unbind k ->
            Itbl.remove t k;
            Hashtbl.remove m k
          | Lookup k ->
            let want = Option.value ~default:(-1) (Hashtbl.find_opt m k) in
            if Itbl.find_default t k ~default:(-1) <> want || Itbl.find_opt t k <> Hashtbl.find_opt m k
            then ok := false
          | Scan -> if not (same t m) then ok := false
          | Copy -> copies := (Itbl.copy t, Hashtbl.copy m) :: !copies
          | Bind_copy (k, v) -> (
            match !copies with (c, cm) :: _ -> bind c cm k v | [] -> ()))
        ops;
      !ok && same t m && List.for_all (fun (c, cm) -> same c cm) !copies)

(* The two sentinel keys are never found and cannot be bound, so looking
   up an arbitrary int (a register value) is safe. *)
let test_itbl_reserved_keys () =
  let module Itbl = Ocolos_util.Itbl in
  let t = Itbl.create 4 in
  Alcotest.(check bool) "empty table: min_int absent" false (Itbl.mem t min_int);
  Itbl.replace t 7 "seven";
  List.iter
    (fun k ->
      Alcotest.(check bool) "reserved key absent" false (Itbl.mem t k);
      Alcotest.(check (option string)) "reserved key finds nothing" None (Itbl.find_opt t k);
      Alcotest.check_raises "reserved key refused" (Invalid_argument "Itbl.replace: reserved key")
        (fun () -> Itbl.replace t k "x"))
    [ min_int; min_int + 1 ];
  Alcotest.(check (option string)) "real key intact" (Some "seven") (Itbl.find_opt t 7)

(* [Codemap] against a [Map.Make (Int)] model: random binds, removes,
   lookups, full scans and copies. Bound keys sit mostly within a few
   slots of a page boundary (4096), so neighbouring keys land on two
   pages, sometimes in a narrow range near 0, so removals empty a page and
   later binds refill it, and sometimes on far-apart pages (up to 16 MiB),
   so the directory grows. Lookups also try negative keys and keys past
   [max_key]. A scan checks the bindings in the map's own fold and iter
   order, unsorted, against the model's ascending bindings. Values are
   boxed strings. Each copy gets its own model; the source and the copy
   are both written and unbound after the copy, and every copy is checked
   at the end, so a page shared or freed across the two shows. A restore
   puts the latest copy's bindings back into the map, as a rollback does
   with its save point, and must report exactly the keys whose presence or
   (physical) value the model says differ, in ascending order; the two
   stay independent afterwards. A lookup also checks [next_key] against
   the model's next binding. *)
type cmap_op =
  | C_bind of int * int
  | C_unbind of int
  | C_lookup of int
  | C_scan
  | C_copy
  | C_bind_copy of int * int
  | C_unbind_copy of int
  | C_restore

let pp_cmap_op = function
  | C_bind (k, v) -> Printf.sprintf "bind %d %d" k v
  | C_unbind k -> Printf.sprintf "unbind %d" k
  | C_lookup k -> Printf.sprintf "lookup %d" k
  | C_scan -> "scan"
  | C_copy -> "copy"
  | C_bind_copy (k, v) -> Printf.sprintf "bind-copy %d %d" k v
  | C_unbind_copy k -> Printf.sprintf "unbind-copy %d" k
  | C_restore -> "restore"

let cmap_ops =
  let open QCheck.Gen in
  let key =
    frequency
      [ (6, map2 (fun p o -> max 0 ((p * 4096) + o)) (int_range 1 3) (int_range (-6) 5));
        (3, int_bound 24);
        (1, map (fun p -> p * 4096) (int_bound 4096));
        (1, int_bound (1 lsl 24)) ]
  in
  let probe =
    frequency
      [ (8, key);
        (1, map (fun k -> -1 - k) (int_bound 10_000));
        (1, map (fun k -> Ocolos_util.Codemap.max_key + 1 + k) (int_bound 10_000)) ]
  in
  let op =
    frequency
      [ (6, map2 (fun k v -> C_bind (k, v)) key (int_bound 1000));
        (3, map (fun k -> C_unbind k) key);
        (3, map (fun k -> C_lookup k) probe);
        (1, return C_scan);
        (1, return C_copy);
        (2, map2 (fun k v -> C_bind_copy (k, v)) key (int_bound 1000));
        (1, map (fun k -> C_unbind_copy k) key);
        (1, return C_restore) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_cmap_op ops))
    (list_size (int_range 1 400) op)

module Int_map = Map.Make (Int)

let prop_codemap_matches_model =
  QCheck.Test.make ~name:"codemap matches a Map model" ~count:300 cmap_ops (fun ops ->
      let module Codemap = Ocolos_util.Codemap in
      let t = Codemap.create () and m = ref Int_map.empty in
      let copies = ref [] in
      let same t m =
        let want = Int_map.bindings m in
        let iterated = ref [] in
        Codemap.iter (fun k v -> iterated := (k, v) :: !iterated) t;
        let pages = List.sort_uniq Int.compare (List.map (fun (k, _) -> k lsr 12) want) in
        Codemap.length t = Int_map.cardinal m
        && Codemap.pages t = List.length pages
        && List.rev (Codemap.fold (fun k v acc -> (k, v) :: acc) t []) = want
        && List.rev !iterated = want
        && Array.to_list (Codemap.keys t) = List.map fst want
      in
      (* One string per binding, shared by map and model, so the restore's
         physical comparison can be checked against the model. *)
      let bind t m k v =
        let v = string_of_int v in
        Codemap.replace t k v;
        m := Int_map.add k v !m
      in
      let absent = "absent" in
      let model_diff before after =
        let find k m = Option.value ~default:absent (Int_map.find_opt k m) in
        List.sort_uniq Int.compare (List.map fst (Int_map.bindings before @ Int_map.bindings after))
        |> List.filter_map (fun k ->
               let v = find k before and w = find k after in
               if v != w then Some (k, v, w) else None)
      in
      let unbind t m k =
        Codemap.remove t k;
        m := Int_map.remove k !m
      in
      let ok = ref true in
      List.iter
        (function
          | C_bind (k, v) -> bind t m k v
          | C_unbind k -> unbind t m k
          | C_lookup k ->
            let want = Int_map.find_opt k !m in
            if
              Codemap.find_opt t k <> want
              || Codemap.mem t k <> (want <> None)
              || Codemap.find_default t k ~default:"none" <> Option.value ~default:"none" want
              || (match Codemap.find t k with v -> Some v | exception Not_found -> None) <> want
              || Codemap.next_key t k
                 <> (match Int_map.find_first_opt (fun x -> x >= k) !m with
                    | Some (x, _) -> x
                    | None -> max_int)
            then ok := false
          | C_scan -> if not (same t !m) then ok := false
          | C_copy -> copies := (Codemap.copy t, ref !m) :: !copies
          | C_bind_copy (k, v) -> (
            match !copies with (c, cm) :: _ -> bind c cm k v | [] -> ())
          | C_unbind_copy k -> (
            match !copies with (c, cm) :: _ -> unbind c cm k | [] -> ())
          | C_restore -> (
            match !copies with
            | (c, cm) :: _ ->
              let seen = ref [] in
              Codemap.restore t ~from:c ~default:absent ~changed:(fun k v w ->
                  seen := (k, v, w) :: !seen);
              let want = model_diff !m !cm in
              if
                List.length !seen <> List.length want
                || not
                     (List.for_all2
                        (fun (k, v, w) (k', v', w') -> k = k' && v == v' && w == w')
                        (List.rev !seen) want)
              then ok := false;
              m := !cm
            | [] -> ()))
        ops;
      !ok && same t !m && List.for_all (fun (c, cm) -> same c !cm) !copies)

(* Keys bound must lie in [0, max_key]; any int may be looked up. A page
   goes when its last binding does. *)
let test_codemap_key_range () =
  let module Codemap = Ocolos_util.Codemap in
  let t = Codemap.create () in
  Codemap.replace t Codemap.max_key "top";
  Codemap.replace t 0 "zero";
  Codemap.replace t 4095 "last slot of page 0";
  Alcotest.(check int) "two pages" 2 (Codemap.pages t);
  List.iter
    (fun k ->
      Alcotest.(check (option string)) "out-of-range key finds nothing" None (Codemap.find_opt t k);
      Alcotest.check_raises "out-of-range key refused"
        (Invalid_argument "Codemap.replace: key out of range") (fun () -> Codemap.replace t k "x"))
    [ -1; min_int; Codemap.max_key + 1; max_int ];
  Alcotest.(check (list int)) "keys ascending" [ 0; 4095; Codemap.max_key ]
    (Array.to_list (Codemap.keys t));
  Codemap.remove t Codemap.max_key;
  Alcotest.(check int) "emptied page freed" 1 (Codemap.pages t);
  Codemap.remove t 0;
  Alcotest.(check int) "page kept while bound" 1 (Codemap.pages t);
  Alcotest.(check int) "one binding left" 1 (Codemap.length t);
  Alcotest.(check (option string)) "freed page reads absent" None
    (Codemap.find_opt t Codemap.max_key)

(* A copy shares its pages: a write or removal on either side is seen by
   neither the other side's bindings nor its page count, also when it
   removes the last key of a shared page. *)
let test_codemap_copy_on_write () =
  let module Codemap = Ocolos_util.Codemap in
  let t = Codemap.create () in
  Codemap.replace t 10 "a";
  Codemap.replace t 20 "b";
  Codemap.replace t 4096 "c";
  let c = Codemap.copy t in
  Codemap.remove c 4096;
  Alcotest.(check int) "copy dropped its last key's page" 1 (Codemap.pages c);
  Alcotest.(check int) "source keeps the shared page" 2 (Codemap.pages t);
  Alcotest.(check (option string)) "source keeps the key" (Some "c") (Codemap.find_opt t 4096);
  Codemap.remove t 10;
  Codemap.replace t 20 "B";
  Alcotest.(check (list (pair int string))) "copy unchanged by source writes"
    [ (10, "a"); (20, "b") ]
    (List.rev (Codemap.fold (fun k v acc -> (k, v) :: acc) c []));
  Codemap.replace c 10 "A";
  Alcotest.(check (list (pair int string))) "source unchanged by copy writes"
    [ (20, "B"); (4096, "c") ]
    (List.rev (Codemap.fold (fun k v acc -> (k, v) :: acc) t []));
  let c2 = Codemap.copy c in
  Codemap.remove c 10;
  Codemap.remove c 20;
  Alcotest.(check int) "copy of a copy keeps its page" 1 (Codemap.pages c2);
  Alcotest.(check int) "emptied copy holds no page" 0 (Codemap.pages c);
  Alcotest.(check (list int)) "copy of a copy keeps its keys" [ 10; 20 ]
    (Array.to_list (Codemap.keys c2))

let suite =
  [ Alcotest.test_case "fault schedule validation" `Quick test_fault_schedule_validation;
    Alcotest.test_case "fault parse_arm" `Quick test_fault_parse_arm;
    Alcotest.test_case "fault domains" `Quick test_fault_domains;
    Alcotest.test_case "fault lethal arming" `Quick test_fault_lethal;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng stream pinned" `Quick test_rng_stream_pinned;
    Alcotest.test_case "rng bool bias" `Quick test_rng_bool_bias;
    Alcotest.test_case "rng invalid bound" `Quick test_rng_invalid;
    Alcotest.test_case "weighted index" `Quick test_weighted_index;
    Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "geomean" `Quick test_stats_geomean;
    Alcotest.test_case "linear regression" `Quick test_linear_regression;
    Alcotest.test_case "perceptron separable" `Quick test_perceptron_separable;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "fmt_int" `Quick test_fmt_int;
    QCheck_alcotest.to_alcotest prop_itbl_matches_model;
    QCheck_alcotest.to_alcotest prop_itbl_int_matches_model;
    Alcotest.test_case "itbl reserved keys" `Quick test_itbl_reserved_keys;
    QCheck_alcotest.to_alcotest prop_codemap_matches_model;
    Alcotest.test_case "codemap key range" `Quick test_codemap_key_range;
    Alcotest.test_case "codemap copy-on-write" `Quick test_codemap_copy_on_write ]
