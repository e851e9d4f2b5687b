/* The minor heap of fgc's one-shot subcommands.

   A -p run unmarshals the prelude image (about 47k words) straight
   into the major heap.  OCaml 5.1 requests a major slice, which starts
   with a minor collection, once a domain has allocated about a fifth
   of its minor heap's size there since the last slice.  Under the
   default 256k-word minor heap every corpus -p run crossed that line
   and paid two minor and two major collections; at 512k words none
   does (EXPERIMENTS B10).

   The size has to be fixed before the runtime starts: resizing from
   OCaml (Gc.set) empties the minor heap, and the first collection of
   a process of fgc's size costs most of what the larger heap saves.
   So this constructor, which runs before main, prepends "s=512k," to
   OCAMLRUNPARAM (to CAMLRUNPARAM's value when only that is set) when
   argv[1] names a one-shot subcommand in full.  Every user setting
   still applies, and a user's own s= wins because a later entry
   overrides an earlier one.  The one-shot subcommands start no OCaml
   child process, so nothing else reads the edited variable.

   batch, fuzz, serve, client, repl and corpus keep the runtime
   default: a larger heap raised batch's peak RSS without saving CPU,
   and the daemon would pay for it once per domain.

   Only glibc and macOS pass (argc, argv) to constructors; elsewhere
   this file compiles to nothing and fgc keeps the default heap. */

#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#if defined(__GLIBC__) || defined(__APPLE__)

static const char *const oneshot[] = {
  "run", "check", "verify", "translate", "elaborate", "eq", NULL
};

__attribute__((constructor))
static void fgc_oneshot_heap(int argc, char **argv)
{
  const char *const *name;
  const char *user;
  char *param;
  size_t n;

  if (argc < 2) return;
  for (name = oneshot; *name != NULL; name++)
    if (strcmp(argv[1], *name) == 0) break;
  if (*name == NULL) return;
  /* The runtime reads CAMLRUNPARAM only when OCAMLRUNPARAM is unset. */
  user = getenv("OCAMLRUNPARAM");
  if (user == NULL) user = getenv("CAMLRUNPARAM");
  if (user == NULL) user = "";
  n = sizeof "s=512k," + strlen(user);
  param = malloc(n);
  if (param == NULL) return;
  snprintf(param, n, "s=512k,%s", user);
  setenv("OCAMLRUNPARAM", param, 1);
  free(param);
}

#endif
