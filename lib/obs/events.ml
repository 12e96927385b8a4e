(* Structured JSONL event log and the one emit point (see events.mli). *)

type event = {
  e_seq : int;
  e_ts_us : int;
  e_type : string;
  e_span : int option;
  e_fields : (string * Trace.value) list;
}

type t = { mutable rev : event list; mutable n : int }

let create () = { rev = []; n = 0 }

let record t ?(fields = []) type_ =
  let ts, span =
    match Trace.installed () with
    | None -> (0, None)
    | Some tr ->
        (* Read the clock without ticking it: recording an event must not
           shift the timestamps of subsequent trace events, or installing
           an event log would change trace bytes. *)
        ( Trace.now_us tr,
          match Trace.open_spans tr with
          | [] -> None
          | sp :: _ -> Some sp.Trace.sp_id )
  in
  let fields =
    match Trace.current_replica () with
    | Some r -> fields @ [ ("replica", Trace.I r) ]
    | None -> fields
  in
  t.rev <-
    { e_seq = t.n; e_ts_us = ts; e_type = type_; e_span = span; e_fields = fields }
    :: t.rev;
  t.n <- t.n + 1

let events t = List.rev t.rev
let count t = t.n

let value_json = function
  | Trace.S s -> Json.String s
  | Trace.I i -> Json.Int i
  | Trace.F f -> Json.Float f
  | Trace.B b -> Json.Bool b

let event_json e =
  Json.Obj
    [ ("seq", Json.Int e.e_seq);
      ("ts_us", Json.Int e.e_ts_us);
      ("type", Json.String e.e_type);
      ("span", (match e.e_span with Some id -> Json.Int id | None -> Json.Null));
      ("fields", Json.Obj (List.map (fun (k, v) -> (k, value_json v)) e.e_fields)) ]

let event_to_string e = Json.to_string (event_json e)

let to_jsonl t =
  let b = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string b (event_to_string e);
      Buffer.add_char b '\n')
    (events t);
  Buffer.contents b

let save path t =
  let oc = open_out path in
  output_string oc (to_jsonl t);
  close_out oc

(* Ambient event log. *)

let current : t option ref = ref None

let with_installed t f =
  let prev = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := prev) f

(* ---- the event catalog ---- *)

type increment = One | Field of string

type family = { family : string; by : increment; labels : string list }

type kind = { instant : bool; counters : family list }

let event counters = { instant = false; counters }
let instant counters = { instant = true; counters }
let one ?(labels = []) family = { family; by = One; labels }
let by field ?(labels = []) family = { family; by = Field field; labels }

(* Families fed by two event types. *)
let undone = by "undone" "ocolos_txn_mutations_undone_total"
let frames = by "frames" "ocolos_frames_migrated_total"

let catalog =
  [ (* profiling window *)
    ("profile.window_open", event []);
    ("profile.window_close", event [ by "samples" "ocolos_perf_samples_total" ]);
    (* BOLT passes and the silent-miscompile domain *)
    ("bolt.pass_start", event []);
    ("bolt.pass_end", event []);
    ( "bolt.miscompile.applied",
      event [ by "mutations" ~labels:[ "point" ] "ocolos_miscompile_mutations_total" ] );
    (* Tier-1 validation and the Tier-2 shadow *)
    ("validate.reject", event [ one ~labels:[ "check" ] "ocolos_validate_rejections_total" ]);
    ( "validate.verdict",
      event [ one "ocolos_validate_runs_total"; by "funcs" "ocolos_validate_funcs_total" ] );
    ("shadow.armed", event [ one "ocolos_shadow_armed_total" ]);
    ("shadow.verdict", event [ one "ocolos_shadow_checks_total" ]);
    (* the stop-the-world transaction, its fault points and OSR *)
    ("txn.begin", event []);
    ("txn.commit", event [ one "ocolos_txn_commits_total" ]);
    ("txn.diverged", instant [ one "ocolos_txn_divergence_rollbacks_total"; undone ]);
    ("txn.rollback", instant [ one "ocolos_txn_rollbacks_total"; undone ]);
    ("fault.fired", instant [ one ~labels:[ "point" ] "ocolos_fault_fired_total" ]);
    ("fault.killed", instant [ one ~labels:[ "point" ] "ocolos_fault_killed_total" ]);
    ( "osr.migrate",
      event [ one "ocolos_replacements_total"; frames; by "stubs" "ocolos_osr_stubs_total" ] );
    ( "osr.revert",
      event
        [ one "ocolos_reverts_total"; frames; by "copies" "ocolos_revert_copied_funcs_total" ] );
    (* guard: breaker, quarantine, watchdog *)
    ("guard.breaker_half_open", instant []);
    ("guard.breaker_opened", instant [ one "ocolos_guard_breaker_opens_total" ]);
    ("guard.breaker_closed", event []);
    ("guard.breaker_tripped", instant []);
    ("guard.quarantined", instant [ one "ocolos_guard_quarantines_total" ]);
    ( "guard.watchdog_tripped",
      instant [ one ~labels:[ "phase" ] "ocolos_guard_watchdog_trips_total" ] );
    (* fleet controller *)
    ("fleet.profiling_started", instant []);
    ("fleet.canary_started", instant [ by "canaries" "ocolos_fleet_canaries_total" ]);
    ("fleet.verify_readout", event []);
    ("fleet.promoted", instant [ one "ocolos_fleet_rollouts_total" ]);
    ("fleet.retry", instant [ one "ocolos_fleet_retries_total" ]);
    ( "fleet.rolled_back",
      instant
        [ one "ocolos_fleet_rollbacks_total"; by "reverted" "ocolos_fleet_reverted_replicas_total" ]
    );
    ("fleet.campaign_aborted", instant [ one "ocolos_fleet_campaigns_aborted_total" ]);
    ("fleet.restart_reverted", instant [ by "replicas" "ocolos_fleet_restart_reverts_total" ]);
    (* crash recovery *)
    ("supervisor.daemon_died", instant [ one "ocolos_supervisor_deaths_total" ]);
    ("chaos.daemon_killed", event []);
    ("chaos.daemon_restarted", event []) ]

let table = Hashtbl.of_seq (List.to_seq catalog)

let emit type_ fields =
  let kind =
    match Hashtbl.find_opt table type_ with
    | Some k -> k
    | None -> invalid_arg ("Events.emit: unknown event type " ^ type_)
  in
  let field want get name =
    match Option.bind (List.assoc_opt name fields) get with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Events.emit %s: field %S must be %s" type_ name want)
  in
  let label l = (l, field "a string" (function Trace.S s -> Some s | _ -> None) l) in
  let amount = function
    | One -> 1
    | Field name -> field "an int" (function Trace.I n -> Some n | _ -> None) name
  in
  (* Resolve every counter before writing anything: a malformed call
     leaves no trace. *)
  let increments =
    List.map (fun f -> (f.family, List.map label f.labels, amount f.by)) kind.counters
  in
  (* Instant first: it ticks the trace clock, and the event's [ts_us] reads
     the clock after the tick. *)
  (if kind.instant then
     match Trace.installed () with Some tr -> Trace.instant tr ~attrs:fields type_ | None -> ());
  (match !current with Some t -> record t ~fields type_ | None -> ());
  List.iter (fun (family, labels, n) -> Metrics.count ~labels family n) increments
