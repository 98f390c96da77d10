(* Where the tests read examples/*.mc and their own data files: the test
   stanza's deps copy them into the build tree (examples beside the test
   directory, data files into it), so the path is taken from the test
   executable, not from the working directory. [dune runtest] and
   [dune exec test/<name>.exe] from the repository root both find them. *)
let dir = Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "examples"
let file name = Filename.concat dir name

(* A data file of the test directory, e.g. a golden file. *)
let beside name = Filename.concat (Filename.dirname Sys.executable_name) name
