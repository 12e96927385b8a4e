(* Supervision state for the OCOLOS daemon: per-function quarantine, a
   circuit breaker over whole optimization campaigns, watchdog deadlines on
   modeled phase durations, and deterministic seeded jitter for every
   backoff.

   A *campaign* is one profile -> aggregate -> BOLT -> replace cycle. The
   breaker counts consecutive campaigns that ended without a committed
   replacement; after [breaker_threshold] of them it opens, refusing new
   campaigns until a simulated cooldown has elapsed, then admits exactly one
   half-open probe. The probe either closes the breaker (commit) or re-opens
   it (another failure).

   Quarantine is per function: a function whose BOLT pass degraded it
   [quarantine_after] times (summed across campaigns) is excluded from all
   future reordering in this run — failing forever is worse than running a
   function in its original layout. Quarantine is monotone: fids are never
   removed.

   Degradation tiers bridge the two: the first campaign failure in a row
   drops the next campaign from [`Full] BOLT to [`Func_reorder_only]; a
   commit restores [`Full]. The third option — keep the current layout —
   is the breaker refusing campaigns entirely. *)

type breaker_state = Closed | Open of { until_s : float } | Half_open

type config = {
  quarantine_after : int;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  jitter : float;
  perf2bolt_deadline_s : float option;
  bolt_deadline_s : float option;
}

let default_config =
  { quarantine_after = 2;
    breaker_threshold = 3;
    breaker_cooldown_s = 60.0;
    jitter = 0.25;
    perf2bolt_deadline_s = None;
    bolt_deadline_s = None }

type t = {
  config : config;
  rng : Ocolos_util.Rng.t; (* jitter stream; pure function of the seed *)
  func_failures : (int, int) Hashtbl.t; (* fid -> cumulative pass failures *)
  quarantine : (int, unit) Hashtbl.t;
  mutable breaker : breaker_state;
  mutable consecutive_failures : int;
  mutable breaker_opens : int;
  mutable watchdog_trips : int;
  mutable tier : Ocolos.tier;
}

let create ?(config = default_config) ?(seed = 0) () =
  { config;
    rng = Ocolos_util.Rng.create (seed lxor 0x6A5D);
    func_failures = Hashtbl.create 32;
    quarantine = Hashtbl.create 16;
    breaker = Closed;
    consecutive_failures = 0;
    breaker_opens = 0;
    watchdog_trips = 0;
    tier = `Full }

let breaker_state t = t.breaker
let consecutive_failures t = t.consecutive_failures
let breaker_opens t = t.breaker_opens
let watchdog_trips t = t.watchdog_trips
let tier t = t.tier

let breaker_state_to_string = function
  | Closed -> "closed"
  | Open { until_s } -> Fmt.str "open (until %.1fs)" until_s
  | Half_open -> "half-open"

(* Deterministic +/-[jitter] fraction around [delay], from the seeded
   stream — desynchronizes retries across campaigns without breaking
   replayability. *)
let jittered t delay =
  let u = Ocolos_util.Rng.float t.rng in
  delay *. (1.0 +. (t.config.jitter *. ((2.0 *. u) -. 1.0)))

let export t =
  let state_code = match t.breaker with Closed -> 0.0 | Open _ -> 1.0 | Half_open -> 2.0 in
  Ocolos_obs.Metrics.record "ocolos_guard_breaker_state" state_code;
  Ocolos_obs.Metrics.record "ocolos_guard_quarantined" (float_of_int (Hashtbl.length t.quarantine));
  Ocolos_obs.Metrics.record "ocolos_guard_consecutive_failures"
    (float_of_int t.consecutive_failures)

(* ---- circuit breaker ---- *)

(* May a new campaign start at [now_s]? An open breaker whose cooldown has
   elapsed transitions to half-open and admits this one campaign as the
   probe. *)
let allow_campaign t ~now_s =
  match t.breaker with
  | Closed | Half_open -> true
  | Open { until_s } ->
    if now_s >= until_s then begin
      t.breaker <- Half_open;
      Ocolos_obs.Events.emit "guard.breaker_half_open" [];
      export t;
      true
    end
    else false

let open_breaker t ~now_s =
  let cooldown = jittered t t.config.breaker_cooldown_s in
  t.breaker <- Open { until_s = now_s +. cooldown };
  t.breaker_opens <- t.breaker_opens + 1;
  Ocolos_obs.Events.emit "guard.breaker_opened"
    [ ("consecutive_failures", Ocolos_obs.Trace.I t.consecutive_failures);
      ("cooldown_s", Ocolos_obs.Trace.F cooldown) ]

let campaign_failed t ~now_s =
  t.consecutive_failures <- t.consecutive_failures + 1;
  Ocolos_obs.Metrics.count "ocolos_guard_campaign_failures_total" 1;
  (* First failure in a row degrades the next campaign's tier. *)
  if t.tier = `Full then t.tier <- `Func_reorder_only;
  (match t.breaker with
  | Half_open -> open_breaker t ~now_s (* the probe failed *)
  | Closed ->
    if t.consecutive_failures >= t.config.breaker_threshold then open_breaker t ~now_s
  | Open _ -> ());
  export t

let campaign_succeeded t =
  if t.breaker <> Closed || t.consecutive_failures > 0 then
    Ocolos_obs.Events.emit "guard.breaker_closed" [];
  t.consecutive_failures <- 0;
  t.breaker <- Closed;
  t.tier <- `Full;
  export t

(* ---- quarantine ---- *)

let quarantined t =
  List.sort compare (Hashtbl.fold (fun fid () acc -> fid :: acc) t.quarantine [])

let quarantined_count t = Hashtbl.length t.quarantine
let is_quarantined t fid = Hashtbl.mem t.quarantine fid

(* [point] names the failing pass, or the validator check that rejected. *)
let enter_quarantine t fid ~point ~failures =
  Hashtbl.replace t.quarantine fid ();
  Ocolos_obs.Events.emit "guard.quarantined"
    [ ("fid", Ocolos_obs.Trace.I fid);
      ("point", Ocolos_obs.Trace.S point);
      ("failures", Ocolos_obs.Trace.I failures) ]

(* Fold one BOLT round's per-function failures ([Bolt.result.failed]) into
   the cumulative counts; a function reaching [quarantine_after] enters
   quarantine permanently. *)
let record_func_failures t failed =
  List.iter
    (fun (fid, point) ->
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.func_failures fid) in
      Hashtbl.replace t.func_failures fid n;
      if n >= t.config.quarantine_after && not (Hashtbl.mem t.quarantine fid) then
        enter_quarantine t fid ~point ~failures:n)
    failed;
  if failed <> [] then export t

(* Immediate quarantine: a translation-validation rejection is proof of
   miscompilation, not a degradation streak — one strike suffices. The
   cumulative failure count is raised to the threshold so the exclusion
   also survives any state export/rebuild that replays counts. *)
let quarantine_now t fid ~reason =
  let n =
    max t.config.quarantine_after
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.func_failures fid))
  in
  Hashtbl.replace t.func_failures fid n;
  if not (Hashtbl.mem t.quarantine fid) then begin
    enter_quarantine t fid ~point:reason ~failures:n;
    export t
  end

(* Immediate breaker trip: shadow-execution divergence means wrong code was
   committed and reverted — no probing the same campaign again until the
   cooldown has passed, whatever the consecutive count says. *)
let trip_breaker t ~now_s ~reason =
  t.consecutive_failures <- t.consecutive_failures + 1;
  Ocolos_obs.Metrics.count "ocolos_guard_campaign_failures_total" 1;
  if t.tier = `Full then t.tier <- `Func_reorder_only;
  Ocolos_obs.Events.emit "guard.breaker_tripped" [ ("reason", Ocolos_obs.Trace.S reason) ];
  (match t.breaker with Open _ -> () | Closed | Half_open -> open_breaker t ~now_s);
  export t

(* ---- watchdog ---- *)

(* Check one phase's modeled duration against its deadline. Returns [true]
   when the watchdog trips (deadline exceeded): the campaign must be
   abandoned, its partial work discarded. *)
let check_deadline t ~phase ~seconds =
  let deadline =
    match phase with
    | `Perf2bolt -> t.config.perf2bolt_deadline_s
    | `Bolt -> t.config.bolt_deadline_s
  in
  match deadline with
  | None -> false
  | Some d ->
    if seconds > d then begin
      t.watchdog_trips <- t.watchdog_trips + 1;
      let name = match phase with `Perf2bolt -> "perf2bolt" | `Bolt -> "bolt" in
      Ocolos_obs.Events.emit "guard.watchdog_tripped"
        [ ("phase", Ocolos_obs.Trace.S name);
          ("seconds", Ocolos_obs.Trace.F seconds);
          ("deadline_s", Ocolos_obs.Trace.F d) ];
      true
    end
    else false
