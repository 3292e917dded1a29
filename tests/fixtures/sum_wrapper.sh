# Runs sum_progress_prog.py with the interpreter given as $1, as a child of
# this shell rather than in its place, so the program under test is a
# grandchild of the runner while the shell waits for it.
"$1" "$(dirname "$0")/sum_progress_prog.py"
exit $?
