(* The catalog linter (tentpole pass 2): structural health checks over
   the soft-constraint catalog itself.

   - contradictory SCs: check statements whose combined per-column
     interval is empty, and absolute difference bands on the same column
     pair with disjoint [d_min, d_max] ranges — the data cannot satisfy
     both, so at least one is wrong (cf. soft-FD repair, Livshits et al.);
   - duplicate / subsumed soft FDs: a same-table FD with the same rhs and
     a (strictly) smaller lhs makes the wider one redundant;
   - SSCs whose decayed confidence is at or below the planner's use
     threshold: dead weight the optimizer already ignores;
   - exception-backed ASCs whose exception table has grown past the
     rewrite-profitability bound: the union plan scans the exceptions on
     every query, so past ~10% of the base table the rewrite stops
     paying;
   - exception tables that do not hold exactly the base rows violating
     their SC's current check (errors): the union plan then duplicates
     or drops rows;
   - enforced PRIMARY KEY / UNIQUE constraints with no unique index on
     exactly their columns: the checker then finds duplicates by scanning
     the whole table, so every insert scans the table. *)

open Rel

let pass = "catalog"

(* Exception table size beyond this fraction of the base table makes the
   exception-union rewrite unprofitable. *)
let exception_growth_bound = 0.1

let norm = String.lowercase_ascii

let contradiction_diags sdb =
  let db = Core.Softdb.db sdb and cat = Core.Softdb.catalog sdb in
  let soft_checks =
    List.filter_map
      (fun (sc : Core.Soft_constraint.t) ->
        if Core.Soft_constraint.is_absolute sc then
          Option.map
            (fun p ->
              (sc.Core.Soft_constraint.table, sc.Core.Soft_constraint.name, p))
            (Core.Soft_constraint.check_pred sc)
        else None)
      (Core.Sc_catalog.usable cat)
  in
  let declared_checks =
    List.filter_map
      (fun (ic : Icdef.t) ->
        match ic.Icdef.body with
        | Icdef.Check p -> Some (ic.Icdef.table, ic.Icdef.name, p)
        | _ -> None)
      (Database.constraints db)
  in
  let tables =
    List.sort_uniq String.compare
      (List.map (fun (t, _, _) -> norm t) soft_checks)
  in
  List.concat_map
    (fun table ->
      let on_table l =
        List.filter (fun (t, _, _) -> norm t = table) l
      in
      let soft = on_table soft_checks and declared = on_table declared_checks in
      let all = soft @ declared in
      if List.length all < 2 then []
      else
        let entries, _ =
          Opt.Interval.summarize
            ~key_of:(fun (r : Expr.col_ref) -> Some (norm r.Expr.col))
            (List.map (fun (_, _, p) -> p) all)
        in
        let contradicted =
          List.filter (fun (_, (_, iv)) -> Opt.Interval.is_empty iv) entries
        in
        List.map
          (fun (col, _) ->
            Diag.error ~pass ~subject:table
              "contradictory constraints on column %s (combined interval is \
               empty): %s"
              col
              (String.concat ", " (List.map (fun (_, n, _) -> n) all)))
          contradicted)
    tables

let band_disjoint_diags sdb =
  let cat = Core.Softdb.catalog sdb in
  let bands =
    List.filter_map
      (fun (sc : Core.Soft_constraint.t) ->
        if not (Core.Soft_constraint.is_absolute sc) then None
        else
          match sc.Core.Soft_constraint.statement with
          | Core.Soft_constraint.Diff_stmt (d, band) ->
              Some (sc.Core.Soft_constraint.name, d, band)
          | _ -> None)
      (Core.Sc_catalog.usable cat)
  in
  let rec pairs = function
    | [] -> []
    | x :: tl -> List.map (fun y -> (x, y)) tl @ pairs tl
  in
  List.filter_map
    (fun ((n1, d1, b1), (n2, d2, b2)) ->
      let same_cols =
        norm d1.Mining.Diff_band.table = norm d2.Mining.Diff_band.table
        && norm d1.Mining.Diff_band.col_hi = norm d2.Mining.Diff_band.col_hi
        && norm d1.Mining.Diff_band.col_lo = norm d2.Mining.Diff_band.col_lo
      in
      let disjoint =
        b1.Mining.Diff_band.d_max < b2.Mining.Diff_band.d_min
        || b2.Mining.Diff_band.d_max < b1.Mining.Diff_band.d_min
      in
      if same_cols && disjoint then
        Some
          (Diag.error ~pass ~subject:(norm d1.Mining.Diff_band.table)
             "absolute difference bands %s and %s on %s - %s are disjoint: \
              no row can satisfy both"
             n1 n2 d1.Mining.Diff_band.col_hi d1.Mining.Diff_band.col_lo)
      else None)
    (pairs bands)

let fd_diags sdb =
  let cat = Core.Softdb.catalog sdb in
  let fds =
    List.filter_map
      (fun (sc : Core.Soft_constraint.t) ->
        match sc.Core.Soft_constraint.statement with
        | Core.Soft_constraint.Fd_stmt fd ->
            Some (sc.Core.Soft_constraint.name, fd)
        | _ -> None)
      (Core.Sc_catalog.usable cat)
  in
  let key (fd : Mining.Fd_mine.fd) =
    ( norm fd.Mining.Fd_mine.table,
      List.sort String.compare (List.map norm fd.Mining.Fd_mine.lhs),
      norm fd.Mining.Fd_mine.rhs )
  in
  let rec pairs = function
    | [] -> []
    | x :: tl -> List.map (fun y -> (x, y)) tl @ pairs tl
  in
  List.filter_map
    (fun ((n1, fd1), (n2, fd2)) ->
      let t1, l1, r1 = key fd1 and t2, l2, r2 = key fd2 in
      if t1 <> t2 || r1 <> r2 then None
      else if l1 = l2 then
        Some
          (Diag.warning ~pass ~subject:t1 "FDs %s and %s are duplicates" n1 n2)
      else
        let subset a b = List.for_all (fun x -> List.mem x b) a in
        if subset l1 l2 then
          Some
            (Diag.warning ~pass ~subject:t1
               "FD %s is subsumed by %s (smaller determinant, same \
                dependent)"
               n2 n1)
        else if subset l2 l1 then
          Some
            (Diag.warning ~pass ~subject:t1
               "FD %s is subsumed by %s (smaller determinant, same \
                dependent)"
               n1 n2)
        else None)
    (pairs fds)

let confidence_diags sdb =
  let db = Core.Softdb.db sdb and cat = Core.Softdb.catalog sdb in
  List.filter_map
    (fun (sc : Core.Soft_constraint.t) ->
      if Core.Soft_constraint.is_absolute sc then None
      else
        let conf = Core.Sc_catalog.current_confidence db sc in
        if conf <= Core.Sc_catalog.use_threshold then
          Some
            (Diag.warning ~pass ~subject:sc.Core.Soft_constraint.name
               "decayed confidence %.3f is at or below the planner's use \
                threshold (%.3f): the SSC is dead weight"
               conf Core.Sc_catalog.use_threshold)
        else None)
    (Core.Sc_catalog.usable cat)

let exception_diags sdb =
  let db = Core.Softdb.db sdb and cat = Core.Softdb.catalog sdb in
  List.filter_map
    (fun (name, exc_table) ->
      match Core.Sc_catalog.find cat name with
      | None -> None
      | Some sc ->
          let base = Core.Sc_catalog.rows_of db sc.Core.Soft_constraint.table in
          let exc = Core.Sc_catalog.rows_of db exc_table in
          if
            base > 0
            && float_of_int exc
               > exception_growth_bound *. float_of_int base
          then
            Some
              (Diag.warning ~pass ~subject:name
                 "exception table %s holds %d rows, over %.0f%% of base \
                  table %s (%d rows): the exception-union rewrite has \
                  stopped paying"
                 exc_table exc
                 (100.0 *. exception_growth_bound)
                 sc.Core.Soft_constraint.table base)
          else None)
    (Core.Sc_catalog.exception_tables cat)

(* The exception-union plan reads the SC's current check in its fast
   branch and the exception table in the other, so the table must hold
   exactly the base rows that violate that check: a stored row the check
   now admits comes back twice, a violator missing from the table is
   lost. *)
let exception_contract_diags sdb =
  let db = Core.Softdb.db sdb and cat = Core.Softdb.catalog sdb in
  List.filter_map
    (fun (name, exc_table) ->
      match Core.Sc_catalog.find cat name with
      | Some sc when Database.find_table db exc_table <> None -> (
          match Core.Soft_constraint.check_pred sc with
          | Some check
            when not
                   (Core.Exception_table.consistent db
                      {
                        Core.Exception_table.constraint_name = name;
                        base_table = sc.Core.Soft_constraint.table;
                        exception_table = exc_table;
                        check;
                      }) ->
              Some
                (Diag.error ~pass ~subject:name
                   "exception table %s does not hold exactly the rows of %s \
                    that violate the current check: the exception-union \
                    plan duplicates or drops rows"
                   exc_table sc.Core.Soft_constraint.table)
          | _ -> None)
      | _ -> None)
    (Core.Sc_catalog.exception_tables cat)

let key_index_diags sdb =
  let db = Core.Softdb.db sdb in
  List.filter_map
    (fun (ic : Icdef.t) ->
      match ic.Icdef.body with
      | (Icdef.Primary_key cols | Icdef.Unique cols) when Icdef.is_enforced ic
        ->
          let backs idx =
            Index.is_unique idx
            && List.map norm (Index.columns idx) = List.map norm cols
          in
          if List.exists backs (Database.indexes_on db ic.Icdef.table) then
            None
          else
            Some
              (Diag.warning ~pass ~subject:(norm ic.Icdef.table)
                 "enforced key %s (%s) has no unique index on exactly its \
                  columns: every insert scans the table"
                 ic.Icdef.name (String.concat ", " cols))
      | _ -> None)
    (Database.constraints db)

let lint sdb =
  contradiction_diags sdb @ band_disjoint_diags sdb @ fd_diags sdb
  @ confidence_diags sdb @ exception_diags sdb @ exception_contract_diags sdb
  @ key_index_diags sdb
