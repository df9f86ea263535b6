(* Seeded data and soft constraints for every workload.

   The serving workloads load [purchase] in this process, declare the
   paper's shipping band as an ASC with its exception table, and hand
   the result to the server as a WAL checkpoint it recovers at start-up;
   this process keeps its own copy as the answer oracle and for the
   traced replay.  The analytics workload builds the paper's SC suites
   in-process. *)

open Rel

let time f =
  let t0 = Spans.now () in
  let r = f () in
  (r, Spans.now () -. t0)

(* ---- purchase, served --------------------------------------------------- *)

let purchase_rows = 20_000

let band_ddl =
  [
    "ALTER TABLE purchase ADD CONSTRAINT ship_3w CHECK (ship_date - \
     order_date BETWEEN 0 AND 21) SOFT";
    "CREATE EXCEPTION TABLE late_shipments FOR CONSTRAINT ship_3w";
  ]

type purchase = {
  sdb : Core.Softdb.t;
  load_s : float;
  sc_install_s : float;
  runstats_s : float;
}

let purchase_db ~seed =
  let sdb = Core.Softdb.create () in
  let (), load_s =
    time (fun () ->
        Workload.Purchase.load
          ~config:
            { Workload.Purchase.default_config with rows = purchase_rows; seed }
          (Core.Softdb.db sdb))
  in
  let (), sc_install_s =
    time (fun () -> List.iter (fun s -> ignore (Core.Softdb.exec sdb s)) band_ddl)
  in
  let (), runstats_s = time (fun () -> Core.Softdb.runstats sdb) in
  { sdb; load_s; sc_install_s; runstats_s }

(* Rewrite [path] as a one-frame checkpoint of [sdb]. *)
let write_checkpoint sdb path =
  if Sys.file_exists path then Sys.remove path;
  let wal = Wal.open_file path in
  let link = Core.Recovery.attach sdb wal in
  Core.Recovery.checkpoint link;
  Core.Recovery.detach link;
  Wal.close wal

let copy_file src dst =
  let s = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc s)

let file_size path = (Unix.stat path).Unix.st_size

(* ---- the analytics suites ------------------------------------------------ *)

(* Install a mined (order_date, ship_date)-style band as an ASC
   (confidence 1) or an SSC (below 1), as the paper's suites do. *)
let install_band sdb ~table ~name ~col_lo ~col_hi ~confidence =
  let tbl = Database.table_exn (Core.Softdb.db sdb) table in
  let d = Option.get (Mining.Diff_band.mine tbl ~col_hi ~col_lo) in
  let band = Option.get (Mining.Diff_band.band_with d ~confidence) in
  let kind =
    if band.Mining.Diff_band.confidence >= 1.0 then Core.Soft_constraint.Absolute
    else Core.Soft_constraint.Statistical band.Mining.Diff_band.confidence
  in
  Core.Softdb.install_sc sdb
    (Core.Soft_constraint.make ~name ~table ~kind
       ~installed_at_mutations:(Table.mutations tbl)
       (Core.Soft_constraint.Diff_stmt (d, band)))

(* The APB hierarchies are exact FDs by construction. *)
let install_apb_fds sdb =
  let db = Core.Softdb.db sdb in
  List.iter
    (fun (name, table, lhs, rhs) ->
      let tbl = Database.table_exn db table in
      Core.Softdb.install_sc sdb
        (Core.Soft_constraint.make ~name ~table
           ~kind:Core.Soft_constraint.Absolute
           ~installed_at_mutations:(Table.mutations tbl)
           (Core.Soft_constraint.Fd_stmt { Mining.Fd_mine.table; lhs; rhs })))
    [
      ("apb_class_group", "product", [ "class" ], "pgroup");
      ("apb_group_family", "product", [ "pgroup" ], "family");
      ("apb_month_quarter", "timedim", [ "month" ], "quarter");
    ]

type suite = { suite : string; sdb : Core.Softdb.t; queries : string list }

type analytics = {
  suites : suite list;
  a_load_s : float;
  a_runstats_s : float;
  a_sc_install_s : float;
}

(* A day drawn uniformly from [lo, lo + span). *)
let day rng lo span = Date.add_days lo (Stats.Rng.int rng span)

(* Full-scale data, every generator and every query parameter drawn from
   [seed].  Ranges have a fixed width, so a seed moves where a query
   looks, not how much it reads. *)
let analytics_db ~seed =
  let rng = Stats.Rng.create (seed * 7919 + 17) in
  let load = ref 0.0 and stats = ref 0.0 and sc = ref 0.0 in
  let build loader install =
    let sdb = Core.Softdb.create () in
    let (), l = time (fun () -> loader (Core.Softdb.db sdb)) in
    let (), r = time (fun () -> Core.Softdb.runstats sdb) in
    let (), s = time (fun () -> install sdb) in
    load := !load +. l;
    stats := !stats +. r;
    sc := !sc +. s;
    sdb
  in
  let purchase_config =
    { Workload.Purchase.default_config with rows = 60_000; seed }
  in
  let purchase_asc =
    build
      (fun db -> Workload.Purchase.load ~config:purchase_config db)
      (fun sdb ->
        install_band sdb ~table:"purchase" ~name:"ship_band_asc"
          ~col_lo:"order_date" ~col_hi:"ship_date" ~confidence:1.0)
  in
  let purchase_ssc =
    build
      (fun db -> Workload.Purchase.load ~config:purchase_config db)
      (fun sdb ->
        install_band sdb ~table:"purchase" ~name:"ship_band_ssc"
          ~col_lo:"order_date" ~col_hi:"ship_date" ~confidence:0.99)
  in
  let project =
    build
      (fun db ->
        Workload.Project.load
          ~config:{ Workload.Project.default_config with seed = seed + 1 }
          db)
      (fun sdb ->
        install_band sdb ~table:"project" ~name:"proj_band"
          ~col_lo:"start_date" ~col_hi:"end_date" ~confidence:0.9)
  in
  let tpcd_config = { Workload.Tpcd.default_config with seed = seed + 2 } in
  let tpcd =
    build
      (fun db ->
        Workload.Tpcd.load ~config:tpcd_config db;
        Workload.Tpcd.create_sales ~config:tpcd_config db)
      ignore
  in
  let apb =
    build
      (fun db ->
        Workload.Apb.load
          ~config:{ Workload.Apb.default_config with seed = seed + 3 }
          db)
      install_apb_fds
  in
  let y1999 = Date.of_ymd 1999 1 1 in
  let ship_eq = List.init 3 (fun _ -> Workload.Queries.purchase_ship_eq (day rng y1999 330)) in
  let week = day rng y1999 330 in
  let twin =
    List.init 3 (fun _ ->
        let lo = day rng y1999 300 in
        Printf.sprintf
          "SELECT * FROM purchase WHERE order_date BETWEEN DATE '%s' AND DATE \
           '%s' AND ship_date <= DATE '%s'"
          (Date.to_string lo)
          (Date.to_string (Date.add_days lo 29))
          (Date.to_string (Date.add_days lo 39)))
  in
  let active =
    List.init 4 (fun _ ->
        Workload.Queries.project_active_on
          (day rng Workload.Project.base_date 700))
  in
  let sales =
    List.init 2 (fun _ ->
        let lo = day rng y1999 300 in
        Workload.Tpcd.sales_union_sql ~date_lo:lo ~date_hi:(Date.add_days lo 39))
  in
  {
    suites =
      [
        {
          suite = "purchase_asc";
          sdb = purchase_asc;
          queries =
            ship_eq
            @ [ Workload.Queries.purchase_ship_range week (Date.add_days week 6) ];
        };
        { suite = "purchase_ssc"; sdb = purchase_ssc; queries = twin };
        {
          suite = "project_ssc";
          sdb = project;
          queries = active @ [ Workload.Queries.project_completed_within 7 ];
        };
        {
          suite = "tpcd";
          sdb = tpcd;
          queries =
            Workload.Queries.join_elimination_suite
            @ (Workload.Queries.join_elimination_negative :: sales);
        };
        { suite = "apb"; sdb = apb; queries = Workload.Apb.queries };
      ];
    a_load_s = !load;
    a_runstats_s = !stats;
    a_sc_install_s = !sc;
  }
