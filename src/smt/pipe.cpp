#include "smt/pipe.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <unordered_set>

#include "smt/smtlib.hpp"
#include "support/bits.hpp"

namespace binsym::smt {

std::vector<std::string> split_command(const std::string& command) {
  std::vector<std::string> words;
  std::istringstream is(command);
  std::string word;
  while (is >> word) words.push_back(word);
  return words;
}

namespace {

void set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

class PipeSolver final : public Solver {
 public:
  PipeSolver(Context& ctx, std::string command)
      : ctx_(ctx),
        argv_(split_command(command)),
        scratch_(/*intern_exprs=*/false) {}

  CheckResult check(std::span<const ExprRef> assertions,
                    Assignment* model) override {
    const auto start = std::chrono::steady_clock::now();
    ++stats_.queries;
    if (argv_.empty()) {
      ++stats_.unknown;
      return CheckResult::kUnknown;
    }

    // The wire query: exactly what print_query emits, with a get-value over
    // the free variables appended when the caller wants a model. The
    // :produce-models option keeps get-value legal for solvers that gate it
    // (cvc5); Z3 and smtcheck accept-and-ignore it.
    const std::vector<ExprRef> list(assertions.begin(), assertions.end());
    const std::vector<uint32_t> vars = collect_vars(list);
    std::ostringstream os;
    os << "(set-option :produce-models true)\n";
    print_query(os, ctx_, list);
    if (model && !vars.empty()) {
      os << "(get-value (";
      for (size_t i = 0; i < vars.size(); ++i) {
        if (i) os << ' ';
        os << ctx_.var_info(vars[i]).name;
      }
      os << "))\n";
    }

    std::string output;
    const bool completed = run_child(os.str(), &output);
    CheckResult result =
        completed ? parse_response(output, vars, model) : CheckResult::kUnknown;
    switch (result) {
      case CheckResult::kSat:     ++stats_.sat; break;
      case CheckResult::kUnsat:   ++stats_.unsat; break;
      case CheckResult::kUnknown: ++stats_.unknown; break;
    }
    stats_.solve_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return result;
  }

  std::string name() const override {
    return "pipe[" + (argv_.empty() ? std::string("?") : argv_[0]) + "]";
  }

 private:
  /// Spawn the child, feed it `input`, collect stdout into *output.
  /// Returns false when the run was abandoned (deadline, spawn failure) — the verdict is then kUnknown regardless of any output.
  bool run_child(const std::string& input, std::string* output) {
    int to_child[2], from_child[2];
    if (pipe(to_child) != 0) return false;
    if (pipe(from_child) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return false;
    }

    const pid_t pid = fork();
    if (pid < 0) {
      for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]})
        close(fd);
      return false;
    }
    if (pid == 0) {
      // Child: stdin/stdout onto the pipes, stderr silenced (solvers chirp
      // "(error ...)" diagnostics we intentionally ignore).
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      const int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) dup2(devnull, STDERR_FILENO);
      for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]})
        close(fd);
      std::vector<char*> argv;
      argv.reserve(argv_.size() + 1);
      for (const std::string& word : argv_)
        argv.push_back(const_cast<char*>(word.c_str()));
      argv.push_back(nullptr);
      execvp(argv[0], argv.data());
      _exit(127);  // exec failed: EOF on stdout -> kUnknown in the parent
    }

    close(to_child[0]);
    close(from_child[1]);
    int write_fd = to_child[1];
    const int read_fd = from_child[0];
    set_nonblocking(write_fd);
    set_nonblocking(read_fd);

    // A child that dies before draining stdin (execvp failure, a crashed
    // solver, one that answers without reading everything) widows the write
    // pipe; the write below must then fail with EPIPE — end of write, keep
    // reading — not raise SIGPIPE and kill the engine. Checking POLLERR
    // first is not enough (the child can exit between poll() and write()),
    // so the signal is blocked for this thread around the I/O loop and any
    // instance our writes generated is drained before the mask is restored.
    sigset_t sigpipe_only, prev_mask;
    sigemptyset(&sigpipe_only);
    sigaddset(&sigpipe_only, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &sigpipe_only, &prev_mask);

    // Interleave writing the query and reading the answer (a large query
    // can exceed the pipe buffer while the child already answers), polling
    // the deadline every slice.
    const bool has_deadline = deadline_ms_ > 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms_);
    size_t written = 0;
    bool abandoned = false;
    for (;;) {
      if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
        abandoned = true;
        break;
      }
      struct pollfd fds[2];
      nfds_t n = 0;
      int write_slot = -1;
      if (write_fd >= 0) {
        fds[n] = {write_fd, POLLOUT, 0};
        write_slot = static_cast<int>(n++);
      }
      const int read_slot = static_cast<int>(n);
      fds[n++] = {read_fd, POLLIN, 0};
      const int rc = poll(fds, n, /*timeout_ms=*/10);
      if (rc < 0) {
        if (errno == EINTR) continue;
        abandoned = true;
        break;
      }
      if (write_slot >= 0 && fds[write_slot].revents != 0) {
        if (fds[write_slot].revents & POLLOUT) {
          const ssize_t w = write(write_fd, input.data() + written,
                                  input.size() - written);
          if (w > 0) written += static_cast<size_t>(w);
          if ((w < 0 && errno != EAGAIN && errno != EINTR) ||
              written == input.size()) {
            close(write_fd);  // EOF tells stdin-driven solvers to finish
            write_fd = -1;
          }
        } else {  // POLLERR/POLLHUP: child closed stdin (or died)
          close(write_fd);
          write_fd = -1;
        }
      }
      if (fds[read_slot].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[4096];
        const ssize_t r = read(read_fd, buf, sizeof buf);
        if (r > 0) {
          output->append(buf, static_cast<size_t>(r));
        } else if (r == 0) {
          break;  // EOF: the child is done
        } else if (errno != EAGAIN && errno != EINTR) {
          break;
        }
      }
    }

    if (write_fd >= 0) close(write_fd);
    close(read_fd);
    if (sigismember(&prev_mask, SIGPIPE) == 0) {
      // Consume any SIGPIPE our writes left pending on this thread, then
      // restore the caller's mask. If the caller had it blocked already,
      // both the mask and any pending instance are theirs to handle.
      struct timespec no_wait = {0, 0};
      while (sigtimedwait(&sigpipe_only, nullptr, &no_wait) == SIGPIPE) {
      }
      pthread_sigmask(SIG_SETMASK, &prev_mask, nullptr);
    }
    if (abandoned) kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
    return !abandoned;
  }

  /// Decode the child's stdout: the first sat/unsat/unknown line is the
  /// verdict ("(error ...)" chatter is skipped); on sat the rest is the
  /// get-value response. A sat verdict whose model cannot be fully decoded
  /// degrades to kUnknown — a weaker answer, never a wrong one.
  CheckResult parse_response(const std::string& output,
                             const std::vector<uint32_t>& vars,
                             Assignment* model) {
    size_t pos = 0;
    CheckResult verdict = CheckResult::kUnknown;
    bool decided = false;
    while (pos < output.size()) {
      size_t eol = output.find('\n', pos);
      if (eol == std::string::npos) eol = output.size();
      std::string line = output.substr(pos, eol - pos);
      pos = eol + 1;
      // Trim.
      const size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;
      line = line.substr(first, line.find_last_not_of(" \t\r") - first + 1);
      if (line.rfind("(error", 0) == 0) continue;
      if (line == "sat") verdict = CheckResult::kSat;
      else if (line == "unsat") verdict = CheckResult::kUnsat;
      else if (line == "unknown") verdict = CheckResult::kUnknown;
      else continue;
      decided = true;
      break;
    }
    if (!decided || verdict != CheckResult::kSat) return verdict;
    if (!model || vars.empty()) return verdict;
    return parse_model(output.substr(pos), vars, model)
               ? CheckResult::kSat
               : CheckResult::kUnknown;
  }

  /// Parse the `((name value) ...)` get-value response. Literal values go
  /// through parse_smtlib (over a private scratch context, so a racing
  /// sibling backend never sees concurrent node allocation); the `(_ bvN w)`
  /// spelling some solvers prefer is handled directly.
  bool parse_model(const std::string& text, const std::vector<uint32_t>& vars,
                   Assignment* model) {
    size_t i = 0;
    auto skip_ws = [&] {
      while (i < text.size() &&
             (std::isspace(static_cast<unsigned char>(text[i])) != 0))
        ++i;
    };
    auto symbol = [&] {
      const size_t begin = i;
      while (i < text.size() && text[i] != '(' && text[i] != ')' &&
             std::isspace(static_cast<unsigned char>(text[i])) == 0)
        ++i;
      return text.substr(begin, i - begin);
    };
    skip_ws();
    if (i >= text.size() || text[i] != '(') return false;
    ++i;  // outer list
    std::unordered_set<uint32_t> decoded;
    for (;;) {
      skip_ws();
      if (i < text.size() && text[i] == ')') break;
      if (i >= text.size() || text[i] != '(') return false;
      ++i;
      skip_ws();
      const std::string name = symbol();
      skip_ws();
      uint64_t value = 0;
      if (i < text.size() && text[i] == '(') {
        // (_ bvN w)
        ++i;
        skip_ws();
        if (symbol() != "_") return false;
        skip_ws();
        const std::string bv = symbol();
        if (bv.rfind("bv", 0) != 0) return false;
        value = std::strtoull(bv.c_str() + 2, nullptr, 10);
        skip_ws();
        symbol();  // width
        skip_ws();
        if (i >= text.size() || text[i] != ')') return false;
        ++i;
      } else {
        const std::string literal = symbol();
        if (literal == "true" || literal == "false") {
          value = literal == "true" ? 1 : 0;
        } else {
          ExprRef node = parse_smtlib(scratch_, literal);
          if (!node || node->kind != Kind::kConst) return false;
          value = node->constant;
        }
      }
      skip_ws();
      if (i >= text.size() || text[i] != ')') return false;
      ++i;
      ExprRef var = ctx_.lookup_var(name);
      if (var) {
        model->set(var->var_id, truncate(value, var->width));
        decoded.insert(var->var_id);
      }
    }
    // Every requested variable must have decoded — counting bindings is not
    // enough, since a duplicate binding could mask a missing variable — or
    // the model could be silently incomplete (a missing variable reads as
    // zero downstream).
    for (uint32_t var : vars)
      if (decoded.count(var) == 0) return false;
    return true;
  }

  Context& ctx_;
  std::vector<std::string> argv_;
  Context scratch_;  // literal parse-back arena, private to this solver
};

}  // namespace

std::unique_ptr<Solver> make_pipe_solver(Context& ctx,
                                         const std::string& command) {
  return std::make_unique<PipeSolver>(ctx, command);
}

}  // namespace binsym::smt
