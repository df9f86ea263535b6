(** The index advisor: mine logged query texts for sargable predicate
    shapes, combine them with distilled soft-constraint facts, and rank
    candidate indexes.

    Both inputs arrive as plain data (SQL strings, hint records) so this
    library stays below [core]: {!Core.Softdb} extracts the texts from
    sys.query_log and the hints from its SC catalog, and surfaces the
    result as sys.index_advisor and [softdb advise]. *)

open Rel

(** Distilled soft-constraint facts relevant to index choice. *)
type sc_hint =
  | Band of { table : string; column : string; width : float; ssc : bool }
      (** an SC bounds the column in a band of relative width [width]
          — range predicates on it select contiguous key runs.  The band
          is an ASC's (every row) or, when [ssc], an SSC's (most rows);
          the candidate's reason names which *)
  | Fd of { table : string; determinant : string list;
            dependents : string list }
      (** determinant → dependents: appending the dependents to an
          index keyed on the determinant adds no distinct keys, so
          covering extensions are nearly free *)

type candidate = {
  cand_table : string;
  cand_columns : string list;  (** equality columns first, then range *)
  cand_covering : bool;
      (** the index alone answers the mined blocks (index-only scan) *)
  cand_score : float;
  cand_queries : int;  (** workload statements this candidate serves *)
  cand_reason : string;
}

val advise :
  Database.t -> queries:string list -> hints:sc_hint list -> candidate list
(** Ranked best-first; deterministic (score, then name) order.
    Unparsable log entries are skipped; candidates whose key is already
    a prefix of a readable index are suppressed. *)
