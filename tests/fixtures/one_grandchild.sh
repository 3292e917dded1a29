# Starts one `sleep` that would outlive this shell and writes its pid to the
# file named by $1.  With "wait" as $2 the shell waits for it while it holds
# the shell's stdout and stderr, so the run times out; otherwise the sleep
# gets its own descriptors and the shell exits at once.
if [ "$2" = wait ]; then
  sleep 37 &
  echo $! > "$1"
  wait
else
  sleep 37 </dev/null >/dev/null 2>&1 &
  echo $! > "$1"
fi
