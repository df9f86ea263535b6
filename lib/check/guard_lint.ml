(* Guarded-by analysis: shared mutable state must declare its lock.

   The concurrent subsystems (lib/srv, lib/core, lib/obs, lib/idx) keep
   their shared mutable state — [mutable] record fields,
   [Hashtbl.t]/[Queue.t]/[Atomic.t] fields, module-level refs — behind
   locks from the canonical [@lock-order] rank table.  Which lock guards
   which state used to live in prose comments; this pass makes it a
   checked annotation:

     (* @guarded-by <lock> *)       on the field, up to three lines
                                    above it, or above the record's
                                    opening brace (covering every field)
     (* @guarded-by none: <why> *)  explicitly unguarded (owner-confined
                                    state, single-threaded scaffolding,
                                    racy-by-design observability reads)

   Errors:
   - shared mutable state with no annotation in range;
   - an annotation naming an undeclared lock;
   - an annotation whose lock is never acquired or held by any
     [@acquires]/[@waits] site in the scanned sources — the guard is
     fiction, nothing can ever hold it around an access;
   - a dead [@lock-order] rank: a declared lock no site or state
     annotation references at all.

   The pass is lexical, like {!Lock_lint}: it sees declarations, not
   accesses.  Whether annotated state is *actually* touched under its
   lock at runtime is the dynamic half's job ({!Obs.Lockdep} +
   {!Lockdep_lint}); the two halves cross-validate through the shared
   rank table. *)

let pass = "guard"

let loc file i = Printf.sprintf "%s:%d" file (i + 1)

(* ---- detecting shared mutable state ---------------------------------------- *)

let mutable_container_types = [ "Hashtbl.t"; "Queue.t"; "Atomic.t" ]

let strip_comment line =
  match Ann.after line "(*" with
  | None -> line
  | Some tail ->
      String.sub line 0 (String.length line - String.length tail - 2)

let is_ident w =
  w <> ""
  && (match w.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
         | _ -> false)
       w

(* A record field whose very declaration is mutable state: a [mutable]
   field, or an immutable field of a mutable container type. *)
let field_decl line =
  let code = String.trim (strip_comment line) in
  let toks =
    String.map (fun c -> if c = '\t' then ' ' else c) code
    |> String.split_on_char ' '
    |> List.filter (fun w -> w <> "")
  in
  match toks with
  | "mutable" :: name :: ":" :: _ when is_ident name -> Some name
  | name :: ":" :: _
    when is_ident name
         && List.exists (fun ty -> Ann.contains code ty)
              mutable_container_types ->
      Some name
  | _ -> (
      (* a second [mutable] field on the same line ({ a : int; mutable b
         : int }) is covered by the first detection on that line *)
      match Ann.after code "{ mutable " with
      | Some tail -> (
          match String.split_on_char ' ' tail with
          | name :: _ when is_ident name -> Some name
          | _ -> None)
      | None -> None)

(* A module-level mutable global: a column-0 [let] bound to a fresh ref
   or mutable container. *)
let global_decl line =
  if not (String.length line > 4 && String.sub line 0 4 = "let ") then None
  else
    let code = strip_comment line in
    if
      List.exists
        (fun mk -> Ann.contains code mk)
        [ "= ref "; "= Hashtbl.create"; "= Queue.create"; "= Atomic.make" ]
    then
      match String.split_on_char ' ' code with
      | "let" :: name :: _ when is_ident name -> Some name
      | _ -> None
    else None

(* ---- annotation binding ----------------------------------------------------- *)

let braces line =
  String.fold_left
    (fun (opens, closes) c ->
      match c with
      | '{' -> (opens + 1, closes)
      | '}' -> (opens, closes + 1)
      | _ -> (opens, closes))
    (0, 0) (strip_comment line)

(* Per-line block guard: a @guarded-by annotation followed (within three
   lines) by an opening brace covers every line until the brace closes. *)
let block_guards lines =
  let n = Array.length lines in
  let cover = Array.make n None in
  Array.iteri
    (fun i line ->
      match Ann.parse_ann line with
      | Some (Ann.Guarded_by g) ->
          let rec find_open j =
            if j > i + 3 || j >= n then None
            else
              let opens, closes = braces lines.(j) in
              if opens > 0 then Some (j, opens - closes) else find_open (j + 1)
          in
          (match find_open i with
          | None -> ()
          | Some (j, depth0) ->
              cover.(j) <- Some g;
              let rec walk k depth =
                if depth > 0 && k < n then begin
                  cover.(k) <- Some g;
                  let opens, closes = braces lines.(k) in
                  walk (k + 1) (depth + opens - closes)
                end
              in
              walk (j + 1) depth0)
      | _ -> ())
    lines;
  cover

let nearby_guard lines i =
  let rec go k =
    if k > 3 || i - k < 0 then None
    else
      match Ann.parse_ann lines.(i - k) with
      | Some (Ann.Guarded_by g) -> Some g
      | Some _ -> None (* a site annotation in between ends the search *)
      | None -> go (k + 1)
  in
  go 0

(* ---- the lint --------------------------------------------------------------- *)

(* Locks some annotated site can actually hold: every @acquires/@waits
   name plus everything in their while clauses. *)
let holdable_locks sources =
  let held = Hashtbl.create 32 in
  List.iter
    (fun (_, contents) ->
      List.iter
        (fun line ->
          match Ann.parse_ann line with
          | Some (Ann.Acquires (name, hs)) | Some (Ann.Waits (name, hs)) ->
              List.iter (fun l -> Hashtbl.replace held l ()) (name :: hs)
          | _ -> ())
        (Ann.lines_of contents))
    sources;
  held

let lint_sources sources =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let decls = Ann.decl_table (Ann.collect_decls sources) in
  let holdable = holdable_locks sources in
  List.iter
    (fun (file, contents) ->
      let lines = Array.of_list (Ann.lines_of contents) in
      let blocks = block_guards lines in
      Array.iteri
        (fun i line ->
          match
            match field_decl line with
            | Some n -> Some n
            | None -> global_decl line
          with
          | None -> ()
          | Some name -> (
              let guard =
                match Ann.parse_ann line with
                | Some (Ann.Guarded_by g) -> Some g
                | _ -> (
                    match nearby_guard lines i with
                    | Some g -> Some g
                    | None -> blocks.(i))
              in
              match guard with
              | None ->
                  add
                    (Diag.error ~pass ~subject:(loc file i)
                       "shared mutable state %s has no @guarded-by \
                        annotation (declare its lock, or @guarded-by none: \
                        <why>)"
                       name)
              | Some "none" -> ()
              | Some g ->
                  if not (Hashtbl.mem decls g) then
                    add
                      (Diag.error ~pass ~subject:(loc file i)
                         "@guarded-by references undeclared lock %s (not in \
                          the @lock-order table)"
                         g)
                  else if not (Hashtbl.mem holdable g) then
                    add
                      (Diag.error ~pass ~subject:(loc file i)
                         "@guarded-by %s: no @acquires/@waits site in the \
                          scanned sources ever holds this lock, so %s cannot \
                          be accessed under it"
                         g name)))
        lines)
    sources;
  (* dead ranks: a declared lock nothing references is a stale table row *)
  let refs = Ann.referenced_locks sources in
  Hashtbl.iter
    (fun name (d : Ann.decl) ->
      if not (Hashtbl.mem refs name) then
        add
          (Diag.error ~pass ~subject:(loc d.Ann.d_file (d.Ann.d_line - 1))
             "dead @lock-order rank: %s (rank %d) is referenced by no \
              @acquires, @waits, held clause, or @guarded-by"
             name d.Ann.d_rank))
    decls;
  List.rev !diags

let lint_files paths = lint_sources (Ann.read_sources paths)
