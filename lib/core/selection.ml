(* The selection stage of the SC process (paper §3.2): "the selection
   stage chooses the most promising of the discovered SCs to keep …
   based on the estimated utility of each for the optimizer with respect
   to the optimizer's capabilities, the database's statistics, and the
   workload", weighed against its predicted maintenance cost.

   Benefit is measured with the optimizer itself: each workload query is
   optimized with and without the candidate installed, and the estimated
   cost difference — plus credit when the candidate changed the chosen
   plan at all (an SSC can improve a plan while *raising* its estimated
   cost, since better estimates are often larger) — is the utility. *)

open Rel

type assessment = {
  sc : Soft_constraint.t;
  benefit : float; (* total estimated cost saved across the workload *)
  plans_changed : int; (* queries whose physical plan differed *)
  maintenance_cost : float;
  net : float;
}

(* Relative per-mutation upkeep of each statement class, scaled by the
   expected number of mutations per workload execution. *)
let upkeep_weight (sc : Soft_constraint.t) =
  match sc.Soft_constraint.statement with
  | Soft_constraint.Ic_stmt (Icdef.Not_null _) -> 0.5
  | Soft_constraint.Ic_stmt (Icdef.Primary_key _ | Icdef.Unique _) -> 8.0
  | Soft_constraint.Ic_stmt (Icdef.Foreign_key _) -> 10.0
  | Soft_constraint.Fd_stmt _ -> 2.0
  | Soft_constraint.Holes_stmt _ -> 5.0
  (* a check, bands included; a partition-domain check only fires for
     rows routing to its segment *)
  | _ -> 1.0

let maintenance_cost ?(mutations_per_workload = 100.0) sc =
  let base = upkeep_weight sc in
  let factor =
    (* SSCs are asynchronous: an order of magnitude cheaper (§3.3) *)
    if Soft_constraint.is_absolute sc then 1.0 else 0.1
  in
  0.01 *. base *. factor *. mutations_per_workload

let ctx_with db catalog extra flags =
  let tmp = Sc_catalog.create () in
  List.iter (fun sc -> Sc_catalog.add tmp sc) (Sc_catalog.all catalog);
  List.iter (fun sc -> Sc_catalog.add tmp sc) extra;
  List.iter
    (fun (name, table) ->
      Sc_catalog.register_exception_table tmp ~constraint_name:name ~table)
    catalog.Sc_catalog.exception_tables;
  Sc_catalog.rewrite_ctx ~flags tmp db

let rec plans_equal (a : Exec.Plan.t) (b : Exec.Plan.t) =
  match (a, b) with
  | Exec.Plan.Union_all xs, Exec.Plan.Union_all ys ->
      List.length xs = List.length ys && List.for_all2 plans_equal xs ys
  | a, b -> a = b

let assess ?(flags = Opt.Rewrite.all_on) ?mutations_per_workload ~db ~stats
    ~catalog ~workload candidates =
  let penv = Opt.Planner.make_env db stats in
  let base_ctx = ctx_with db catalog [] flags in
  let base_costs_and_plans =
    List.map
      (fun q ->
        let r = Opt.Explain.optimize base_ctx penv q in
        (r.Opt.Explain.estimated_cost, r.Opt.Explain.plan))
      workload
  in
  List.map
    (fun sc ->
      let ctx = ctx_with db catalog [ sc ] flags in
      let benefit = ref 0.0 and plans_changed = ref 0 in
      List.iter2
        (fun q (base_cost, base_plan) ->
          let r = Opt.Explain.optimize ctx penv q in
          let saved = base_cost -. r.Opt.Explain.estimated_cost in
          if saved > 0.0 then benefit := !benefit +. saved;
          if not (plans_equal base_plan r.Opt.Explain.plan) then begin
            incr plans_changed;
            (* an SSC that changed the plan has informed the optimizer
               even when the new estimate is not lower *)
            if saved <= 0.0 then
              benefit := !benefit +. (0.05 *. base_cost)
          end)
        workload base_costs_and_plans;
      let maintenance_cost = maintenance_cost ?mutations_per_workload sc in
      {
        sc;
        benefit = !benefit;
        plans_changed = !plans_changed;
        maintenance_cost;
        net = !benefit -. maintenance_cost;
      })
    candidates

(* Keep the [k] best candidates with positive net utility. *)
let select ?flags ?mutations_per_workload ?(k = 8) ~db ~stats ~catalog
    ~workload candidates =
  assess ?flags ?mutations_per_workload ~db ~stats ~catalog ~workload
    candidates
  |> List.filter (fun a -> a.net > 0.0)
  |> List.sort (fun a b -> Float.compare b.net a.net)
  |> List.filteri (fun i _ -> i < k)

let pp_assessment ppf a =
  Fmt.pf ppf "%-28s benefit=%8.1f plans_changed=%d upkeep=%6.2f net=%8.1f"
    a.sc.Soft_constraint.name a.benefit a.plans_changed a.maintenance_cost
    a.net
