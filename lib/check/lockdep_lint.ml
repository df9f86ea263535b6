(* Cross-validation of the runtime lockdep witness against the static
   rank table — the dynamic half of the concurrency suite.

   The witness ({!Obs.Lockdep}) records the acquisition-order edge graph
   a real run exhibited; the [@lock-order] table declares the order the
   sources promise.  Each checks the other:

   - every observed edge (held -> acquired) must name declared locks and
     go strictly uphill in rank — an edge the table forbids means the
     annotations under-declare what the server really does;
   - any violation the witness caught live (non-reentrant re-acquisition,
     a cycle in the edge graph) is an error verbatim;
   - every declared rank must have been exercised by the run — a rank no
     traffic ever touches is a stale table row the static lint would
     keep trusting forever — unless it carries [lockdep-waive] with the
     reason beside it.

   The static passes prove properties of code that annotations describe;
   this pass is the reply: the described discipline is the one the
   binary actually runs. *)

let pass = "lockdep"

let lint ~sources (g : Obs.Lockdep.graph) =
  let decls = Ann.decl_table (Ann.collect_decls sources) in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let subject = "lockdep-graph" in
  let declared name : Ann.decl option = Hashtbl.find_opt decls name in
  List.iter
    (fun (held, acquired, count) ->
      match (declared held, declared acquired) with
      | None, _ ->
          add
            (Diag.error ~pass ~subject
               "observed edge %s -> %s references undeclared lock %s" held
               acquired held)
      | _, None ->
          add
            (Diag.error ~pass ~subject
               "observed edge %s -> %s references undeclared lock %s" held
               acquired acquired)
      | Some dh, Some da ->
          if held = acquired then begin
            if not dh.Ann.d_reentrant then
              add
                (Diag.error ~pass ~subject
                   "observed re-acquisition of non-reentrant lock %s (%d \
                    time(s))"
                   held count)
          end
          else if dh.Ann.d_rank >= da.Ann.d_rank then
            add
              (Diag.error ~pass ~subject
                 "observed lock-order inversion: %s (rank %d) acquired while \
                  holding %s (rank %d), %d time(s) — the rank table forbids \
                  this edge"
                 acquired da.Ann.d_rank held dh.Ann.d_rank count))
    g.Obs.Lockdep.g_edges;
  List.iter
    (fun v -> add (Diag.error ~pass ~subject "runtime witness violation: %s" v))
    g.Obs.Lockdep.g_violations;
  (* stale ranks: the run is the table's liveness proof *)
  let exercised = Hashtbl.create 32 in
  List.iter (fun l -> Hashtbl.replace exercised l ()) g.Obs.Lockdep.g_locks;
  Hashtbl.fold (fun _ d acc -> d :: acc) decls []
  |> List.sort (fun (a : Ann.decl) b -> compare a.Ann.d_rank b.Ann.d_rank)
  |> List.iter (fun (d : Ann.decl) ->
         if
           (not (Hashtbl.mem exercised d.Ann.d_name))
           && not d.Ann.d_waived
         then
           add
             (Diag.error ~pass ~subject
                "stale rank: %s (rank %d) was never exercised by the lockdep \
                 run — retire it or mark it lockdep-waive with the reason"
                d.Ann.d_name d.Ann.d_rank));
  List.rev !diags
