/*
 * measure OUT -- PROG [ARGS...]
 *
 * Runs PROG as a child, waits for it, and writes one JSON object to
 * OUT: the child's start time on the monotonic clock, its wall time
 * from fork to exit, its peak resident set size and its exit status.
 * Exits with the child's status (128 + signal if it was killed).
 *
 * The peak RSS the kernel reports for a child includes the memory of
 * the process it was forked from; forking from this small program
 * instead of the Python runner keeps that floor far below the
 * measured program's own peak.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <stdio.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static double
seconds(const struct timespec *t)
{
    return (double)t->tv_sec + (double)t->tv_nsec * 1e-9;
}

int
main(int argc, char **argv)
{
    if (argc < 4 || strcmp(argv[2], "--") != 0) {
        fprintf(stderr, "usage: measure OUT -- PROG [ARGS...]\n");
        return 2;
    }
    struct timespec t0, t1;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    pid_t pid = fork();
    if (pid < 0) {
        perror("measure: fork");
        return 2;
    }
    if (pid == 0) {
        execvp(argv[3], argv + 3);
        perror(argv[3]);
        _exit(127);
    }
    int status = 0;
    struct rusage ru;
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR) {
            perror("measure: wait4");
            return 2;
        }
    }
    clock_gettime(CLOCK_MONOTONIC, &t1);
    int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                 : 128 + WTERMSIG(status);
    FILE *f = fopen(argv[1], "w");
    if (!f) {
        perror(argv[1]);
        return 2;
    }
    fprintf(f,
            "{\"start_us\": %.3f, \"wall_s\": %.9f, "
            "\"maxrss_kb\": %ld, \"exit\": %d}\n",
            seconds(&t0) * 1e6, seconds(&t1) - seconds(&t0),
            ru.ru_maxrss, code);
    if (fclose(f) != 0) {
        perror(argv[1]);
        return 2;
    }
    return code;
}
