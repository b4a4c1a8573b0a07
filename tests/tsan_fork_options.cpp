// Linked into the test binaries that fork after parallel_for has started its
// helper threads (on purpose: a forked child must get a working worker set
// of its own). ThreadSanitizer cannot follow a multithreaded process across
// fork() and by default kills a child that starts threads; with
// die_after_fork=0 the child runs, unchecked, and the parent stays checked.
#if defined(__SANITIZE_THREAD__)
#define TDAT_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TDAT_TSAN_BUILD 1
#endif
#endif

#ifdef TDAT_TSAN_BUILD
extern "C" const char* __tsan_default_options() { return "die_after_fork=0"; }
#endif
