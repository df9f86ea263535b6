(* The pool-backed scatter runner: partition-parallel execution of a
   Scatter_gather node's subtasks across the scheduler's domains.

   The executor ({!Exec.Operators}) owns the operator semantics —
   private buffers, deterministic merge, retry, partition attribution —
   and delegates only "run these thunks, give me the outcomes" through
   the [scatter_runner] injection point (exec must not depend on srv).
   This module supplies the parallel implementation:

   - the subtasks become a {!Part.Batch}: one helper job per subtask
     beyond the first is offered to the pool via
     {!Scheduler.submit_internal} (no admission control — the
     submitting query already passed it), each helper claims and runs
     whatever subtasks remain;
   - the submitting domain then *steals*: it drains unclaimed subtasks
     itself, so a saturated or shutting-down pool degrades to
     sequential execution instead of deadlocking, and finally waits
     only on claims running elsewhere;
   - the submitting query's deadline and cancellation (inherited
     through {!Scheduler.current_deadline} domain-local state) are
     checked before each subtask body: past-deadline or cancelled
     subtasks raise {!Exec.Operators.Scatter_abandoned}, which the
     executor maps to a whole-query error without retry.

   Helper jobs carry the same deadline/cancellation, so ones still
   queued when the deadline passes expire in the scheduler without ever
   touching the batch. *)

let abandon why = raise (Exec.Operators.Scatter_abandoned why)

let run pool tasks =
  let deadline = Scheduler.current_deadline () in
  let cancelled = Scheduler.current_cancelled () in
  let guarded body () =
    if cancelled () then abandon "cancelled";
    (match deadline with
    | Some d when Unix.gettimeofday () > d -> abandon "deadline exceeded"
    | Some _ | None -> ());
    body ()
  in
  let batch = Part.Batch.create (Array.map guarded tasks) in
  let now = Unix.gettimeofday () in
  for i = 2 to Array.length tasks do
    ignore
      (Scheduler.submit_internal pool
         {
           Scheduler.session = 0;
           req_id = -i;
           enqueued_at = now;
           deadline;
           cancelled;
           run =
             (fun () ->
               Part.Batch.drain batch;
               `Done);
           expired = (fun _ -> ());
         })
  done;
  Part.Batch.drain batch;
  Part.Batch.wait batch

let install pool = Exec.Operators.scatter_runner := run pool
