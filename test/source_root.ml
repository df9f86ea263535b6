(* The source tree a test runs in: the nearest ancestor of the working
   directory that holds dune-project — [_build/default] under
   [dune runtest], the checkout under [dune exec]. *)
let find () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())
