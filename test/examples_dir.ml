(* Where the tests read examples/*.mc: the test stanza's deps copy them
   beside the test directory in the build tree, so the path is taken from
   the test executable, not from the working directory. [dune runtest] and
   [dune exec test/<name>.exe] from the repository root both find it. *)
let dir = Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "examples"
let file name = Filename.concat dir name
