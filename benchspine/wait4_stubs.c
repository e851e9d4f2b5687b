/* Reap a child process and report its exit status, peak resident set
   size and CPU time.  OCaml's Unix library has no getrusage/wait4, and
   the peak memory and CPU time of a short-lived `fgc` process are only
   observable at reap time. */

#define _DEFAULT_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* spine_wait4 pid -> (exit code or negated signal number, maxrss KiB,
                       user + system CPU time in microseconds) */
CAMLprim value spine_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0, err = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid), r;

  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  err = errno;
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(err == ECHILD ? "wait4: no such child" : "wait4 failed");

  res = caml_alloc_tuple(3);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  Store_field(res, 2,
              Val_long((ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000L
                       + ru.ru_utime.tv_usec + ru.ru_stime.tv_usec));
  CAMLreturn(res);
}
