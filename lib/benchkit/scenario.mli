(** The benchmark scenario registry: workloads × soft-constraint modes,
    each executing through the full parse → rewrite → plan → execute
    pipeline with per-node instrumentation ({!Opt.Explain.analyze}) and
    producing one {!Measure.scenario_result}.

    Modes follow the paper's machinery: [off] (every rewrite disabled —
    the oracle baseline), [asc] (absolute soft constraints driving
    result-changing rewrites), [ssc] (statistical constraints driving
    twinned cardinality estimation), [guarded] (prepared plans whose ASC
    is overturned mid-stream, exercising backup-plan fallback and the
    plan cache), [wal] (the durability path, measuring logged bytes),
    [idx] (a covering secondary index answers the suite index-only — the
    indexed pages_read/rows_scanned and the rewrites.index_only count
    gate, with the unindexed run alongside under the noindex prefix), and
    [part1]/[part4]/[part8] (purchase partitioned by RANGE (id) into 1, 4
    or 8 segments: partition pruning, with per-partition scan counters in
    the deterministic section — pruned segments must report zero).

    The paper's remaining claims (EXPERIMENTS.md E1–E15) each have a home
    here too: [exc] (the late_shipments exception-union plan),
    [holes/off]/[holes/asc] (join-hole trimming), [minmax/off]/[minmax/asc]
    (min/max domain SCs), [advisor/off]/[advisor/asc] (the advisor end to
    end), [maintenance] (ASC availability per maintenance policy),
    [mixed/ablation] (each rewrite disabled alone), and the timing claims
    [holes/mine] and [tpcd/load], whose times are report-only.

    Every data generator is seeded explicitly here — never from a
    default or the clock — so two runs of the same commit produce
    byte-identical deterministic sections. *)

type scale = Quick | Full

val scale_name : scale -> string
val scale_of_name : string -> scale option

type t = {
  name : string;  (** unique id: ["workload/mode"] *)
  workload : string;
  mode : string;
  descr : string;
  exec : scale -> Measure.scenario_result;
}

val all : t list
(** The registry, sorted by name. *)

val find : string -> t option
val names : string list

type fixture = {
  fixture_name : string;  (** matches the scenario name *)
  fixture_setup : scale -> Core.Softdb.t;
  fixture_queries : string list;
}

val fixtures : fixture list
(** Every query-suite scenario, plus [purchase/part4] and [purchase/idx],
    as (name, database, workload) triples for the static certificate
    checker ([softdb check]) and the differential rewrite check.  The
    stateful scenarios ([guarded], [wal], [maintenance], [ablation],
    [mine], [load]) are not query suites. *)

val run :
  ?only:string list -> scale:scale -> label:string -> unit -> Measure.run
(** Execute the registry (or the [only] subset, by name — unknown names
    raise [Invalid_argument]) and package the results. *)
