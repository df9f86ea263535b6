(* Prepared plans and ASC invalidation (paper §4.1).

   "A worse expense for ASC violations is that every pre-compiled query
   plan that employs a violated ASC in its plan must be dropped …  One
   possible tactic is for a package to incorporate a 'backup' plan which
   is ASC-free.  If an ASC is overturned, a flag is raised and packages
   revert to the alternative plans."

   A prepared entry keeps the optimizer's report, which already carries
   both halves of the tactic: the guards (the constraints its
   result-changing rewrites relied on; twins, estimation-only, never
   guard) and the rewrite-free backup plan.  Execution decides through
   the same check as ad-hoc statements ({!Softdb.failed_guards}): the
   fast plan runs while every guard holds; the first failure flags the
   entry, and from then on its backup runs.  [reprepare] re-optimizes
   flagged entries against the current catalog, the "recompiled before
   they can be used again" path.

   The cache is bounded: past [capacity] entries the least-recently-used
   one is evicted (prepare-or-execute counts as use), the eviction tallied
   in [stats] and in the plan_cache.evictions metric.  Entry-list and
   recency bookkeeping are mutex-guarded because one cache is shared by
   every server session (lib/srv); optimization itself runs outside the
   lock so a slow prepare never blocks another session's execute. *)

(* @guarded-by core.plan_cache *)
type entry = {
  name : string;
  sql : string;
  query : Sqlfe.Ast.query;
  mutable report : Opt.Explain.report; (* fast plan, guards and backup *)
  mutable obj_tables : string list; (* tables any compiled plan opens *)
  mutable obj_indexes : string list; (* indexes any compiled plan probes *)
  mutable invalidated : bool;
  mutable fast_runs : int;
  mutable backup_runs : int;
  mutable last_used : int; (* recency stamp for LRU eviction *)
}

(* @guarded-by core.plan_cache *)
type t = {
  sdb : Softdb.t;
  capacity : int;
  lock : Mutex.t;
  mutable use_seq : int;
  mutable evictions : int;
  mutable entries : entry list;
}

exception No_such_plan of string

let default_capacity = 64

let locked t f =
  (* @acquires core.plan_cache while srv.session db.rwlock *)
  Obs.Lockdep.acquire "core.plan_cache";
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.lock;
      Obs.Lockdep.release "core.plan_cache")
    f

let touch t entry =
  t.use_seq <- t.use_seq + 1;
  entry.last_used <- t.use_seq

(* Evict least-recently-used entries until the count fits the capacity;
   caller holds the lock. *)
let enforce_capacity t =
  while List.length t.entries > t.capacity do
    let victim =
      List.fold_left
        (fun acc e ->
          match acc with
          | None -> Some e
          | Some v -> if e.last_used < v.last_used then Some e else acc)
        None t.entries
    in
    match victim with
    | None -> ()
    | Some v ->
        t.entries <- List.filter (fun e -> e != v) t.entries;
        t.evictions <- t.evictions + 1;
        Obs.Metrics.incr (Softdb.metrics t.sdb) "plan_cache.evictions"
  done

(* Compilation happens outside the cache lock — optimize is expensive
   and takes engine-side locks of its own. *)
let compile t sql =
  let query = Sqlfe.Parser.parse_query_string sql in
  (query, Softdb.optimize t.sdb query)

(* Catalog objects either compiled plan (fast or backup) dereferences at
   open.  DDL against one of them — DROP TABLE, DROP INDEX, an index
   demotion — makes the plans unrunnable (not merely sub-optimal, as SC
   invalidation does), so execution must re-prepare from SQL first. *)
let plan_objects (report : Opt.Explain.report) =
  let plans =
    report.Opt.Explain.plan :: Option.to_list report.Opt.Explain.backup_plan
  in
  ( List.sort_uniq String.compare
      (List.concat_map Exec.Plan.referenced_tables plans),
    List.sort_uniq String.compare
      (List.concat_map Exec.Plan.referenced_indexes plans) )

let fresh_entry ~name ~sql ~query ~report =
  let obj_tables, obj_indexes = plan_objects report in
  {
    name;
    sql;
    query;
    report;
    obj_tables;
    obj_indexes;
    invalidated = false;
    fast_runs = 0;
    backup_runs = 0;
    last_used = 0;
  }

let prepare t ~name sql =
  let query, report = compile t sql in
  locked t (fun () ->
      let entry = fresh_entry ~name ~sql ~query ~report in
      touch t entry;
      t.entries <- entry :: List.filter (fun e -> e.name <> name) t.entries;
      enforce_capacity t;
      entry)

let find t name =
  locked t (fun () -> List.find_opt (fun e -> e.name = name) t.entries)

let find_or_prepare t ~name sql =
  match find t name with
  | Some e -> (e, false)
  | None ->
      let query, report = compile t sql in
      (* re-check under the lock: sessions prepare concurrently under a
         shared read lock, so two of them can both miss above and both
         compile — without this, the second insert would replace the
         first and the sharing metric would undercount.  The loser's
         compilation is discarded; the winner's entry is what everyone
         binds to. *)
      locked t (fun () ->
          match List.find_opt (fun e -> e.name = name) t.entries with
          | Some e -> (e, false)
          | None ->
              let entry = fresh_entry ~name ~sql ~query ~report in
              touch t entry;
              t.entries <- entry :: t.entries;
              enforce_capacity t;
              (entry, true))

let find_exn t name =
  match find t name with Some e -> e | None -> raise (No_such_plan name)

(* The fast plan may run: the entry is not flagged, and no guard has
   failed since ({!Softdb.failed_guards}, the check ad-hoc execution
   makes too). *)
let valid t entry =
  (not entry.invalidated) && Softdb.failed_guards t.sdb entry.report = []

(* Creating the cache also re-registers the sys.plan_cache view over it,
   so the cache's state is SQL-queryable through the facade. *)
let create ?(capacity = default_capacity) sdb =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  let t =
    {
      sdb;
      capacity;
      lock = Mutex.create ();
      use_seq = 0;
      evictions = 0;
      entries = [];
    }
  in
  Obs.Sys_tables.(register (Softdb.db sdb) "sys.plan_cache" plan_cache)
    (fun () ->
      List.rev_map
        (fun e ->
          {
            Obs.Sys_tables.name = e.name;
            sql = e.sql;
            valid = valid t e;
            dependencies = e.report.Opt.Explain.guards;
            fast_runs = e.fast_runs;
            backup_runs = e.backup_runs;
            last_used = e.last_used;
          })
        (locked t (fun () -> t.entries)));
  t

type cache_stats = {
  entries : int;
  valid : int;
  fast_runs : int;
  backup_runs : int;
  capacity : int;
  evictions : int;
}

let stats t =
  let entries, evictions = locked t (fun () -> (t.entries, t.evictions)) in
  List.fold_left
    (fun acc e ->
      {
        acc with
        entries = acc.entries + 1;
        valid = (acc.valid + if valid t e then 1 else 0);
        fast_runs = acc.fast_runs + e.fast_runs;
        backup_runs = acc.backup_runs + e.backup_runs;
      })
    {
      entries = 0;
      valid = 0;
      fast_runs = 0;
      backup_runs = 0;
      capacity = t.capacity;
      evictions;
    }
    entries

(* DDL staleness: a referenced table/index no longer exists, or a
   referenced index is no longer readable.  Distinct from a failed guard
   — a stale plan cannot run at all. *)
let ddl_stale t entry =
  let db = Softdb.db t.sdb in
  List.exists
    (fun tbl -> Rel.Database.find_table db tbl = None)
    entry.obj_tables
  || List.exists
       (fun name ->
         match Rel.Database.find_index_by_name db name with
         | Some idx -> not (Rel.Index.is_readable idx)
         | None -> true)
       entry.obj_indexes

(* Recompile an entry from its SQL (outside the lock — compile takes
   engine-side locks of its own) and swap its compiled state in place. *)
let recompile_entry t entry =
  let _, report = compile t entry.sql in
  locked t (fun () ->
      entry.report <- report;
      let obj_tables, obj_indexes = plan_objects report in
      entry.obj_tables <- obj_tables;
      entry.obj_indexes <- obj_indexes;
      entry.invalidated <- false)

(* Execute a prepared plan: the fast plan while its guards hold, the
   report's rewrite-free backup once one fails (the §4.1 flag-and-revert
   tactic).  The flag is sticky until re-preparation, so the fallback is
   counted once, on the transition: re-running an overturned entry is
   not a new fallback event (cf. {!Softdb.execute_report}, one count per
   statement however many guards failed).  Guards are checked and
   counters stamped under the lock; the plan itself runs outside it. *)
let execute t name =
  let entry = find_exn t name in
  (if ddl_stale t entry then begin
     (* re-prepare from the SQL (a dropped table still fails here, as it
        must — no plan can answer it) rather than run a stale plan *)
     recompile_entry t entry;
     Obs.Metrics.incr (Softdb.metrics t.sdb) "plan_cache.ddl_repreparations"
   end);
  let plan =
    locked t (fun () ->
        touch t entry;
        let report = entry.report in
        (if not entry.invalidated then
           match Softdb.failed_guards t.sdb report with
           | [] -> ()
           | failed ->
               entry.invalidated <- true;
               Softdb.note_guard_fallback t.sdb failed);
        if entry.invalidated then begin
          entry.backup_runs <- entry.backup_runs + 1;
          Option.value report.Opt.Explain.backup_plan
            ~default:report.Opt.Explain.plan
        end
        else begin
          entry.fast_runs <- entry.fast_runs + 1;
          report.Opt.Explain.plan
        end)
  in
  Exec.Executor.run (Softdb.db t.sdb) plan

(* Re-optimize every invalidated or DDL-stale entry against the current
   catalog.  An entry whose recompilation fails (e.g. its table was
   dropped) is left as is: execution surfaces the real error when the
   plan is next asked for. *)
let reprepare t =
  let entries = locked t (fun () -> t.entries) in
  List.iter
    (fun entry ->
      if ddl_stale t entry || not (valid t entry) then
        try recompile_entry t entry with _ -> ())
    entries

let pp_entry ppf e =
  Fmt.pf ppf "%s: guards=[%a] fast=%d backup=%d%s" e.name
    Fmt.(list ~sep:(any ", ") string)
    e.report.Opt.Explain.guards e.fast_runs e.backup_runs
    (if e.invalidated then " INVALIDATED" else "")
