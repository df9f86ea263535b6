(** The benchmark measurement record — the schema behind [BENCH.json].

    A {!run} is a set of scenario results, each split into two metric
    sections with different contracts:

    - [deterministic] — operator work counts (rows scanned / pages read /
      index probes), per-node q-error aggregates, rewrite fire counts,
      plan-cache and guard-fallback counters, WAL bytes.  Two runs of the
      same commit produce {e byte-identical} values here (fixed-seed data
      generation, no wall clock), so {!Diff} gates on them hard.
    - [wallclock] — elapsed times, throughput, latency percentiles.
      Machine- and load-dependent; carried in the same report but only
      ever {e reported}, never gated (the same discipline
      {!Obs.Metrics} applies to its timing store).

    The serialized form is schema-versioned; {!of_json} refuses a
    version it does not understand rather than mis-reading it. *)

type scenario_result = {
  scenario : string;  (** unique id, conventionally ["workload/mode"] *)
  workload : string;
  mode : string;
  deterministic : (string * float) list;  (** sorted by metric name *)
  wallclock : (string * float) list;  (** sorted by metric name *)
}

type run = {
  schema_version : int;
  label : string;
  scale : string;  (** ["quick"] or ["full"] *)
  scenarios : scenario_result list;  (** sorted by scenario id *)
}

val schema_version : int
(** The version this code writes; currently 1. *)

exception Schema_error of string
(** Unknown schema version or malformed record. *)

val make_result :
  scenario:string -> workload:string -> mode:string ->
  deterministic:(string * float) list -> wallclock:(string * float) list ->
  scenario_result
(** Sorts both metric sections by name. *)

val make_run : label:string -> scale:string -> scenario_result list -> run
(** Stamps {!schema_version} and sorts scenarios by id (duplicate ids
    raise {!Schema_error}). *)

val to_json : run -> Json.t
val of_json : Json.t -> run

val save : string -> run -> unit
(** Write the pretty-printed JSON to a file (trailing newline). *)

val load : string -> run
(** Raises {!Schema_error} on version/shape problems, {!Json.Parse_error}
    on malformed JSON, [Sys_error] on I/O. *)

val fingerprint : run -> string
(** Canonical serialization of the gated content only — schema version,
    scale, and every scenario's deterministic section (label and
    wall-clock stripped).  Byte-equal fingerprints ⇔ the runs are
    indistinguishable to the hard gate. *)
