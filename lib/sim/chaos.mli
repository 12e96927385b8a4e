(** Kill/restart chaos harness: for every pipeline fault point, kill the
    daemon there, assert the orphaned target's taken-branch trace is
    byte-identical to an uninterrupted run of the code version that
    survived, and assert a restarted controller
    ({!Ocolos_core.Supervisor}) converges to a committed replacement or a
    clean give-up.

    The controller is always an {!Ocolos_core.Fleet}: single-process
    scenarios run a one-replica fleet under the same permissive verdict
    thresholds as the N-replica ones ([max_ipc_drop = 1], no p99 guard),
    and all scenarios share one fleet construction, stepping and drive
    loop.

    All target driving is by instruction budget (never cycle horizon), so
    profiling stalls shift cycle time without reordering the branch stream
    — that is what makes full-trace byte equality the right check rather
    than an approximation.

    The harness settings are fixed: the tiny workload with its jump tables
    kept (so [inject_data] is reachable), 12k-instruction ticks, a 60-tick
    budget, and a daemon whose [regression_tolerance < 0] makes the drift
    gate fire every amortization interval, which is how
    gc_*/thread_patch/verify points become reachable without an input
    shift. Only the execution engine varies: every scenario takes
    [?engine] (default [`Blocks]) for all target driving (steps, drains,
    fleet replicas); [`Reference] drives the targets with no decoded-block
    cache, as the containment tests do. *)

type outcome =
  | Verified of {
      death : Ocolos_core.Supervisor.death;
      survivor_version : int;  (** committed version running at death *)
      trace_equal : bool;
      trace_len : int;  (** branches recorded in the kill run *)
      terminated : bool;  (** both trace runs drained to a halt *)
      cache_ok : bool;
          (** {!Ocolos_proc.Proc.validate_code_cache} held after both
              drains: no dead or stale decoded block survived the death
              and its rollback *)
      convergence : Ocolos_core.Supervisor.convergence;
    }
  | Not_reached  (** the armed point never fired within the tick budget *)

type result = { r_seed : int; r_point : string; r_outcome : outcome }

(** [`Pass]: the daemon died, the traces matched on drained runs, the code
    caches validated, and the restart converged. [`Fail]: it died but a
    check failed. [`Unreached]:
    the armed point never fired (e.g. [inject_data] on a workload whose
    jump tables were lowered away — there is no data to inject). *)
val verdict : result -> [ `Pass | `Unreached | `Fail ]

(** [verdict r = `Pass]. *)
val passed : result -> bool

val outcome_to_string : outcome -> string

(** Self-describing artifact label for a scenario:
    [seed<S>-<domain>-<point>] (dots in the point mapped to underscores).
    The armed point's fault domain is included — a directory of
    [--trace-dir] dumps must identify the subsystem that was hit without
    the sweep output at hand. *)
val scenario_label : result -> string

val result_to_string : result -> string

(** Shared reference runs, keyed by (seed, survivor version). *)
type ref_cache

val new_cache : unit -> ref_cache

(** One (seed, point) scenario: kill run, reference run, convergence run.
    [cache] shares reference runs across scenarios of the same seed. *)
val scenario :
  ?engine:[ `Reference | `Blocks ] -> ?cache:ref_cache -> seed:int -> point:string -> unit -> result

(** The full catalog ({!Ocolos_core.Ocolos.fault_catalog}). *)
val default_points : string list

val default_seeds : int list

(** Run scenarios over [seeds] x [points]; reference runs are shared per
    seed. *)
val sweep :
  ?engine:[ `Reference | `Blocks ] -> ?seeds:int list -> ?points:string list -> unit -> result list

(** {2 Fleet chaos}

    Kill the daemon mid-campaign over N replicas (one shared fault
    registry, so [Nth] schedules count hits fleet-wide — arming ["commit"]
    at hit K+1 lands between the canaries' commits and the promotion wave,
    stranding a mixed C_i/C_{i+1} fleet), then restart with
    {!Ocolos_core.Supervisor.restart} and require a homogeneous
    terminal state. *)

type fleet_outcome = {
  fo_death : Ocolos_core.Supervisor.death;
  fo_mixed_at_death : bool;  (** did the kill strand a mixed fleet? *)
  fo_reverted : int list;  (** replicas reverted to C0 on reattach *)
  fo_convergence : Ocolos_core.Supervisor.convergence;
  fo_final_versions : int list;
  fo_final_converged : bool;
}

type fleet_result = Fleet_verified of fleet_outcome | Fleet_not_reached

(** The restart converged and the final fleet is homogeneous. *)
val fleet_passed : fleet_result -> bool

val fleet_result_to_string : seed:int -> point:string -> fleet_result -> string

(** Kill/restart one fleet scenario: [replicas] copies of the endless tiny
    workload on a heterogeneous input mix ("a" on even replicas, "b" on
    odd), one shared fault registry, kill at [point] under [schedule]
    (default first hit). *)
val fleet_scenario :
  ?engine:[ `Reference | `Blocks ] ->
  ?replicas:int ->
  ?schedule:Ocolos_util.Fault.schedule ->
  seed:int ->
  point:string ->
  unit ->
  fleet_result

(** {2 Miscompile containment chaos}

    The [bolt.miscompile] points are survivable corruption, not deaths:
    arming one makes {!Ocolos_core.Ocolos.run_bolt} hand the controller a
    silently corrupted result, and these scenarios assert the containment
    tiers stop it — a Tier-1 validation rejection (campaign aborted before
    commit, offending functions quarantined, [validate.reject] events
    logged) or a Tier-2 shadow revert (the commit undone within the same
    tick, breaker tripped) — with the surviving target's taken-branch
    trace byte-identical to an uninterrupted run of the surviving version,
    and a subsequent campaign converging on the same controller. A
    corrupted version that gets promoted is an escape. *)

(** The five [bolt.miscompile.*] points ({!Ocolos_bolt.Miscompile.points}). *)
val miscompile_points : string list

type mc_outcome =
  | Mc_contained of {
      mc_tier : [ `Validate | `Shadow ];
      mc_reason : string;
      mc_mutations : int;  (** corruption sites the armed point mutated *)
      mc_quarantined : int list;  (** fids the Tier-1 rejection quarantined *)
      mc_reject_events : int;  (** [validate.reject] events recorded *)
      mc_breaker_tripped : bool;  (** breaker left [Closed] (Tier-2) *)
      mc_survivor_version : int;  (** committed version running afterwards *)
      mc_trace_equal : bool;
      mc_terminated : bool;
      mc_cache_ok : bool;
      mc_convergence : Ocolos_core.Supervisor.convergence;
    }
  | Mc_escaped of { mc_version : int; mc_mutations : int }
  | Mc_benign  (** the point fired but found no applicable corruption site *)
  | Mc_not_reached  (** no campaign ran the point within the tick budget *)

type mc_result = { mc_seed : int; mc_point : string; mc_outcome : mc_outcome }

(** [`Pass]: containment held — the tier-specific evidence is present
    (quarantine + reject events for Tier 1, a tripped breaker for Tier 2),
    the drained trace matches the uncorrupted reference, and the endless
    run converged after containment. [`Fail]: an escape, or containment
    with missing evidence. [`Unreached]: the point never fired or mutated
    nothing. *)
val mc_verdict : mc_result -> [ `Pass | `Unreached | `Fail ]

val mc_passed : mc_result -> bool
val mc_outcome_to_string : mc_outcome -> string
val mc_result_to_string : mc_result -> string

(** One (seed, point) miscompile scenario: a finite traced run driven to
    the containment terminal then drained and compared against a reference
    ([cache] shares references with the kill scenarios), plus an endless
    run required to converge after containment. *)
val miscompile_scenario :
  ?engine:[ `Reference | `Blocks ] -> ?cache:ref_cache -> seed:int -> point:string -> unit -> mc_result

(** Scenarios over [seeds] x [points] (defaults: seeds 1–2, the whole
    [bolt.miscompile] catalog); references shared per seed. *)
val miscompile_sweep :
  ?engine:[ `Reference | `Blocks ] -> ?seeds:int list -> ?points:string list -> unit -> mc_result list

type mc_fleet_result =
  | Mc_fleet_contained of {
      mf_tier : [ `Validate | `Shadow ];
      mf_reason : string;
      mf_mutations : int;
      mf_mixed_after : bool;  (** fleet mixed right after containment? *)
      mf_versions : int list;
      mf_convergence : Ocolos_core.Supervisor.convergence;
      mf_converged : bool;  (** final fleet homogeneous *)
    }
  | Mc_fleet_escaped of { mf_versions : int list; mf_mutations : int }
  | Mc_fleet_not_reached  (** never fired, or fired with no applicable site *)

(** Containment left the fleet homogeneous and the continued campaign
    reached a terminal outcome. *)
val mc_fleet_passed : mc_fleet_result -> bool

val mc_fleet_result_to_string : seed:int -> point:string -> mc_fleet_result -> string

(** One fleet miscompile scenario: [replicas] endless replicas on a
    heterogeneous input mix, one shared fault registry, the armed point
    corrupting the fleet's single BOLT result. Tier 1 must reject it for
    every replica at once (validation runs once, pre-stage); if it slips
    through (the [jump_table] blind spot), the canary's Tier-2 shadow must
    revert the staged replicas before promotion — either way no replica
    may keep the divergent version and the fleet must end homogeneous. *)
val miscompile_fleet_scenario :
  ?engine:[ `Reference | `Blocks ] -> ?replicas:int -> seed:int -> point:string -> unit -> mc_fleet_result
